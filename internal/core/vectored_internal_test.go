package core

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/sched"
)

// Guest-supplied iovecs outside the registered heap must fail the call
// with EFAULT — never panic the kernel.
func TestVectoredRejectsOutOfRangeIovecs(t *testing.T) {
	sim := sched.New()
	sys := browser.NewSystem(sim, browser.Chrome())
	k := NewKernel(sys, nil, nil)
	task := &Task{k: k, heap: browser.NewSAB(4096), files: map[int]*Desc{}}
	r, w := NewPipePair()
	task.files[0] = NewDesc(r, abi.O_RDONLY, "r")
	task.files[1] = NewDesc(w, abi.O_WRONLY, "w")

	bad := [][]abi.Iovec{
		{{Ptr: 4090, Len: 100}},                  // runs past the heap
		{{Ptr: -8, Len: 16}},                     // negative pointer
		{{Ptr: 0, Len: -1}},                      // negative length
		{{Ptr: 1 << 40, Len: 16}},                // pointer past the heap
		{{Ptr: 16, Len: 1 << 62}},                // length overflows any sum
		{{Ptr: (1 << 63) - 9, Len: 16}},          // Ptr+Len wraps negative
		{{Ptr: 0, Len: 16}, {Ptr: 4096, Len: 1}}, // second iovec bad
	}
	const table = 2048
	for i, iovs := range bad {
		abi.PackIovecs(task.heap.Bytes()[table:], iovs)
		for _, c := range []struct {
			trap int
			fd   int64
		}{{abi.SYS_writev, 1}, {abi.SYS_readv, 0}} {
			var got abi.Errno = -1
			frame := pendingCall{trap: c.trap, args: []int64{c.fd, table, int64(len(iovs))}}
			ran := false
			sim.Post(sys.Main.Sched(), sim.Now(), func() {
				k.heapCall(task, frame, func(_ uint32, ret int64, err abi.Errno) { got = err })
				ran = true
			})
			sim.RunUntil(func() bool { return ran })
			if got != abi.EFAULT {
				t.Errorf("%s case %d: err=%v, want EFAULT", abi.SyscallName(c.trap), i, got)
			}
		}
	}

	// A task with no registered heap fails cleanly too.
	bare := &Task{k: k}
	if err := bare.checkIovecs([]abi.Iovec{{Ptr: 0, Len: 8}}); err != abi.EFAULT {
		t.Errorf("heapless iovecs: err=%v, want EFAULT", err)
	}
}
