package core

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
)

// TestPersonalityRefusesBadHeaps: the personality call answers EINVAL,
// and installs neither heap nor ring, when the heap is nil, is not a
// SharedArrayBuffer, or is smaller than the abi heap layout — on the op
// and through a posted frame. The smallest heap that holds the layout
// is accepted, with its rings where abi.HeapRings puts them.
func TestPersonalityRefusesBadHeaps(t *testing.T) {
	cases := []struct {
		name string
		heap any
	}{
		{"nil", nil},
		{"nil-sab", (*browser.SAB)(nil)},
		{"bytes", make([]byte, ringWorldHeap)},
		{"int", int64(ringWorldHeap)},
		{"empty-sab", browser.NewSAB(0)},
		{"tiny-sab", browser.NewSAB(64)},
		{"one-short", browser.NewSAB(abi.HeapMinSize - 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fw := newFrameWorld(t)
			fw.task.heap, fw.task.ring = nil, nil
			var got abi.Result
			cont := fw.task.takeCont(abi.SYS_personality)
			cont.ring = func(_ uint32, ret int64, err abi.Errno) { got = abi.Result{Ret: ret, Err: err} }
			sysOps[abi.SYS_personality](fw.k, fw.task, callArgs{Args: abi.Args{Heap: c.heap}}, cont)
			if got.Ret != -1 || got.Err != abi.EINVAL {
				t.Errorf("personality op: ret %d err %v, want -1 EINVAL", got.Ret, got.Err)
			}
			fw.send([]*abi.CallFrame{{ID: 7, Trap: abi.SYS_personality, Args: abi.Args{Heap: c.heap}}})
			if r := fw.replies[7]; len(r) != 1 || r[0].Res.Ret != -1 || r[0].Res.Err != abi.EINVAL {
				t.Errorf("personality frame: replies %+v, want one -1 EINVAL", r)
			}
			if fw.task.heap != nil || fw.task.ring != nil {
				t.Errorf("a refused personality installed a heap or ring")
			}
		})
	}
	w := newRingWorld(t)
	sab := browser.NewSAB(abi.HeapMinSize)
	if err := w.task.setPersonality(sab); err != abi.OK {
		t.Fatalf("minimal heap refused: %v", err)
	}
	_, _, off, _ := abi.HeapRings(sab.Bytes())
	if w.task.heap != sab || w.task.ring.off != off || &w.task.ring.req.B[0] != &sab.Bytes()[off] {
		t.Fatal("personality did not install the abi layout's rings")
	}
}

// TestRingAsyncOnlyENOSYS: a ring frame naming an AsyncOnly trap is
// answered ENOSYS without running its op; those calls travel only as
// posted frames.
func TestRingAsyncOnlyENOSYS(t *testing.T) {
	w := newCodecWorld(t)
	heap, ring := w.task.heap, w.task.ring
	var traps []int
	for trap := 1; trap < abi.SYS_max; trap++ {
		if abi.Syscalls[trap].Transport == abi.AsyncOnly {
			traps = append(traps, trap)
		}
	}
	if len(traps) != 3 {
		t.Fatalf("AsyncOnly rows %v, want fork, personality and snapcap", traps)
	}
	for i, trap := range traps {
		// Words a heap-carried personality or fork could be read from.
		if !ring.req.PushCall(uint32(i), trap, []int64{hcPath, 2, hcPath, 2}) {
			t.Fatalf("push %s", abi.SyscallName(trap))
		}
	}
	tasks := len(w.k.tasks)
	w.drain(t)
	for range traps {
		seq, ret, errno, ok := ring.rep.PopReply()
		if !ok || ret != -1 || errno != abi.ENOSYS {
			t.Fatalf("%s frame: ret %d errno %v ok %v, want ENOSYS", abi.SyscallName(traps[seq]), ret, errno, ok)
		}
	}
	if w.task.heap != heap || w.task.ring != ring || len(w.k.tasks) != tasks {
		t.Fatal("an AsyncOnly ring frame ran its op")
	}
}

// TestDrainRingHostileCursors: a doorbell whose request-ring cursors the
// guest pointed past the data area dispatches nothing, resets the ring,
// and leaves it serving the next well-formed frame.
func TestDrainRingHostileCursors(t *testing.T) {
	w := newCodecWorld(t)
	req := w.task.ring.req
	le.PutUint32(req.B[0:], abi.HeapRingSize+100)
	le.PutUint32(req.B[4:], abi.HeapRingSize+200)
	calls := w.k.SyncSyscalls.Load()
	w.drain(t)
	if got := w.k.SyncSyscalls.Load(); got != calls || req.Used() != 0 {
		t.Fatalf("hostile cursors: %d calls dispatched, %d bytes left", got-calls, req.Used())
	}
	req.PushCall(9, abi.SYS_getpid, nil)
	w.drain(t)
	seq, ret, errno, ok := w.task.ring.rep.PopReply()
	if !ok || seq != 9 || ret != int64(w.task.Pid) || errno != abi.OK {
		t.Fatalf("after reset: seq=%d ret=%d errno=%v ok=%v", seq, ret, errno, ok)
	}
}

// TestRingDrainAllocs measures the kernel half of a warm synchronous
// pipe write plus read: both frames ride one doorbell, one drain
// dispatches them through the heap codec, and both replies land in one
// batched push. What is left is the write buffer's copy out of the heap
// (one allocation; the limit leaves one more for the toolchain's escape
// analysis). Popping frames, the drain's batch, the completion and the
// pipe's queues allocate nothing once warm.
func TestRingDrainAllocs(t *testing.T) {
	const limit = 2
	w := newRingWorld(t)
	var rfd, wfd int
	w.run(t, func() { rfd, wfd = w.k.doPipe2(w.task) })
	const src, dst = 1024, 2048
	payload := []byte("0123456789abcdef")
	heap := w.task.heap.Bytes()
	copy(heap[src:], payload)
	wargs := []int64{int64(wfd), src, int64(len(payload))}
	rargs := []int64{int64(rfd), dst, 64}
	ring := w.task.ring
	drain := func() { w.k.drainRing(w.task) }
	replies, bad := 0, 0
	doorbell := func() {
		ring.req.PushCall(1, abi.SYS_write, wargs)
		ring.req.PushCall(2, abi.SYS_read, rargs)
		w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), drain)
		w.sim.Run()
		for {
			seq, ret, errno, ok := ring.rep.PopReply()
			if !ok {
				break
			}
			replies++
			if ret != int64(len(payload)) || errno != abi.OK || (seq == 2 && string(heap[dst:dst+len(payload)]) != string(payload)) {
				bad++
			}
		}
		clear(heap[dst : dst+len(payload)])
	}
	for i := 0; i < 8; i++ {
		doorbell()
	}
	replies = 0
	notifies := w.k.RingNotifies.Load()
	n := testing.AllocsPerRun(200, doorbell)
	if replies != 2*201 || bad != 0 {
		t.Fatalf("%d replies, %d wrong; want every call answered and the payload read back", replies, bad)
	}
	if got := w.k.RingNotifies.Load() - notifies; got != 201 {
		t.Fatalf("%d notifies for 201 doorbells, want one each", got)
	}
	if n > limit {
		t.Fatalf("ring pipe write+read doorbell allocated %v times, want <= %d", n, limit)
	}
}

// TestRingLateCompletion: a read that parks on an empty pipe in one
// drain completes during a later drain, when that drain's write fills
// the pipe. It is not part of the later drain's batch: its reply goes
// straight into the reply ring through ringReply, ahead of the batch,
// and every frame is answered exactly once, with one notify for the
// later drain and none for the drain that only parked.
func TestRingLateCompletion(t *testing.T) {
	w := newRingWorld(t)
	var rfd, wfd int
	w.run(t, func() { rfd, wfd = w.k.doPipe2(w.task) })
	const src, dst = 1024, 2048
	payload := []byte("late")
	heap := w.task.heap.Bytes()
	copy(heap[src:], payload)
	ring := w.task.ring

	// The probe runs as the later drain's last call: it sees what the
	// reply ring holds before that drain's batch lands.
	op := sysOps[abi.SYS_getppid]
	defer func() { sysOps[abi.SYS_getppid] = op }()
	seen := -1
	sysOps[abi.SYS_getppid] = func(k *Kernel, t *Task, a callArgs, c *callCont) {
		seen = t.ring.rep.Used()
		c.done(res(0, abi.OK))
	}

	notifies := w.k.RingNotifies.Load()
	ring.req.PushCall(1, abi.SYS_read, []int64{int64(rfd), dst, 64})
	w.drain(t)
	if got := w.k.RingNotifies.Load() - notifies; got != 0 || ring.rep.Used() != 0 {
		t.Fatalf("parking drain: %d notifies, %d reply bytes; want none", got, ring.rep.Used())
	}
	ring.req.PushCall(2, abi.SYS_write, []int64{int64(wfd), src, int64(len(payload))})
	ring.req.PushCall(3, abi.SYS_getppid, nil)
	w.drain(t)
	if got := w.k.RingNotifies.Load() - notifies; got != 1 {
		t.Fatalf("%d notifies over both drains, want 1", got)
	}
	if seen != abi.ReplyFrameSize {
		t.Fatalf("reply ring held %d bytes during the later drain, want the late read's one frame", seen)
	}
	want := map[uint32]int64{1: int64(len(payload)), 2: int64(len(payload)), 3: 0}
	var order []uint32
	for {
		seq, ret, errno, ok := ring.rep.PopReply()
		if !ok {
			break
		}
		if r, known := want[seq]; !known || ret != r || errno != abi.OK {
			t.Fatalf("reply seq %d: ret %d errno %v", seq, ret, errno)
		}
		delete(want, seq)
		order = append(order, seq)
	}
	if len(order) != 3 || order[0] != 1 {
		t.Fatalf("replies in order %v, want each of 1, 2, 3 once with the late read first", order)
	}
	if string(heap[dst:dst+len(payload)]) != string(payload) {
		t.Fatalf("read landed %q, want %q", heap[dst:dst+len(payload)], payload)
	}
}
