package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
)

// TestAsyncRoundTripAllocs measures a warm asynchronous pipe write plus
// read: the worker posts both call frames, the kernel runs the ops and
// posts both replies, and the worker releases each reply after reading
// it, as the runtime does. What is left is what the modelled structured
// clones copy: the write buffer and the read payload. The worker reuses
// its two call frames, as the runtime's pool does; reply frames come
// from the task's pool, and delivery events, continuation records and
// the pipe's queues allocate nothing once warm.
func TestAsyncRoundTripAllocs(t *testing.T) {
	const limit = 2
	fw := newFrameWorld(t)
	var rfd, wfd int
	fw.run(t, func() { rfd, wfd = fw.k.doPipe2(fw.task) })
	replies, lastID := 0, int64(0)
	var lastData []byte
	fw.wk.Ctx.OnMessage = func(v browser.Value) {
		f := v.(*abi.ReplyFrame)
		replies, lastID, lastData = replies+1, f.ID, f.Res.Data
		f.Release()
	}
	payload := []byte("0123456789abcdef")
	wf, rf := &abi.CallFrame{}, &abi.CallFrame{}
	post := func() {
		fw.wk.PostToParent(wf)
		fw.wk.PostToParent(rf)
	}
	roundTrip := func() {
		*wf = abi.CallFrame{ID: 1, Trap: abi.SYS_write, Args: abi.Args{Int: [3]int64{int64(wfd)}, Bytes: payload}}
		*rf = abi.CallFrame{ID: 2, Trap: abi.SYS_read, Args: abi.Args{Int: [3]int64{int64(rfd)}, Cap: 64}}
		fw.sim.Post(fw.wk.Ctx.Sched(), fw.sim.Now(), post)
		fw.sim.Run()
	}
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	replies = 0
	n := testing.AllocsPerRun(200, roundTrip)
	if replies != 2*201 || lastID != 2 || string(lastData) != string(payload) {
		t.Fatalf("%d replies, last %d %q; want every call answered and the payload read back", replies, lastID, lastData)
	}
	if n > limit {
		t.Fatalf("async pipe write+read allocated %v times per round trip, want <= %d", n, limit)
	}
}

// TestSecondCompletionPanics: an op that completes one call twice fails
// loudly, naming the trap, on both codecs, instead of answering the
// call (or a later one sharing its record) a second time.
func TestSecondCompletionPanics(t *testing.T) {
	op := sysOps[abi.SYS_getppid]
	defer func() { sysOps[abi.SYS_getppid] = op }()
	sysOps[abi.SYS_getppid] = func(k *Kernel, t *Task, a callArgs, c *callCont) {
		c.done(res(1, abi.OK))
		c.done(res(2, abi.OK))
	}
	catch := func(run func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		run()
		return ""
	}
	fw := newFrameWorld(t)
	msg := catch(func() { fw.send([]*abi.CallFrame{{ID: 1, Trap: abi.SYS_getppid}}) })
	if !strings.Contains(msg, "getppid completed twice") {
		t.Errorf("async codec: panic %q, want one naming getppid", msg)
	}
	if n := len(fw.replies[1]); n > 1 {
		t.Errorf("async codec: %d replies to one call", n)
	}

	w := newRingWorld(t)
	w.task.ring.req.PushCall(0, abi.SYS_getppid, nil)
	msg = catch(func() { w.drain(t) })
	if !strings.Contains(msg, "getppid completed twice") {
		t.Errorf("heap codec: panic %q, want one naming getppid", msg)
	}
}
