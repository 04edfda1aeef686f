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
