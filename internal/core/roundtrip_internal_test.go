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
// it, as the runtime does. What is left is the write's clone of its
// buffer: the pipe keeps that copy, and the read's reply moves it to
// the reader. The worker reuses its two call frames, as the runtime's
// pool does; reply frames come from the task's pool, and delivery
// events, continuation records and the pipe's queues allocate nothing
// once warm.
func TestAsyncRoundTripAllocs(t *testing.T) {
	const limit = 1
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

// TestAsyncPollRoundTripAllocs measures a warm asynchronous poll over
// 32 descriptors (16 pipes, each read end asked for POLLIN and each
// write end for POLLOUT, so the poll answers at once): the call frame's
// clone of the pollfd set is the one allocation left, since the reply
// moves that set, revents filled in, back to the worker.
func TestAsyncPollRoundTripAllocs(t *testing.T) {
	const limit = 1
	fw := newFrameWorld(t)
	var fds []abi.Pollfd
	fw.run(t, func() {
		for i := 0; i < 16; i++ {
			rfd, wfd := fw.k.doPipe2(fw.task)
			fds = append(fds, abi.Pollfd{Fd: int32(rfd), Events: abi.POLLIN}, abi.Pollfd{Fd: int32(wfd), Events: abi.POLLOUT})
		}
	})
	replies, ready, writable := 0, int64(0), 0
	fw.wk.Ctx.OnMessage = func(v browser.Value) {
		f := v.(*abi.ReplyFrame)
		replies, ready, writable = replies+1, f.Res.Ret, 0
		for _, p := range f.Res.Pollfds {
			if p.Revents == abi.POLLOUT {
				writable++
			}
		}
		f.Release()
	}
	pf := &abi.CallFrame{}
	post := func() { fw.wk.PostToParent(pf) }
	roundTrip := func() {
		*pf = abi.CallFrame{ID: 1, Trap: abi.SYS_poll, Args: abi.Args{Pollfds: fds}}
		fw.sim.Post(fw.wk.Ctx.Sched(), fw.sim.Now(), post)
		fw.sim.Run()
	}
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	replies = 0
	n := testing.AllocsPerRun(200, roundTrip)
	if replies != 201 || ready != 16 || writable != 16 {
		t.Fatalf("%d replies, last ready %d with %d POLLOUT revents; want every poll answered with the 16 write ends", replies, ready, writable)
	}
	t.Logf("async poll of %d fds: %v allocations per round trip", len(fds), n)
	if n > limit {
		t.Fatalf("async poll of %d fds allocated %v times per round trip, want <= %d", len(fds), n, limit)
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
