package core

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
)

// TestRegisterRingRefusesBadRegions: the "ring" registration answers
// EINVAL, and installs no ring, for a region outside the heap, a region
// smaller than abi.MinRingSize, and a call made before "personality".
func TestRegisterRingRefusesBadRegions(t *testing.T) {
	const heap, size = ringWorldHeap, ringWorldRing
	req, rep := int64(heap-2*size), int64(heap-size)
	cases := []struct {
		name                           string
		reqOff, reqLen, repOff, repLen int64
		noPersonality                  bool
	}{
		{"req-past-end", heap, size, rep, size, false},
		{"req-straddles-end", heap - size/2, size, rep, size, false},
		{"rep-negative", req, size, -size, size, false},
		{"rep-huge-offset", req, size, 1 << 62, size, false},
		{"req-huge-len", req, 1 << 62, rep, size, false},
		{"req-too-small", req, abi.MinRingSize - 1, rep, size, false},
		{"rep-too-small", req, size, rep, abi.MinRingSize - 1, false},
		{"rep-empty", req, size, rep, 0, false},
		{"before-personality", req, size, rep, size, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := newRingWorld(t)
			w.task.ring = nil
			if c.noPersonality {
				w.task.heap = nil
			}
			if err := w.k.registerRing(w.task, c.reqOff, c.reqLen, c.repOff, c.repLen); err != abi.EINVAL {
				t.Errorf("registerRing: %v, want EINVAL", err)
			}
			var got []browser.Value
			args := []browser.Value{c.reqOff, c.reqLen, c.repOff, c.repLen}
			asyncLocal["ring"](w.k, w.task, args, func(ret ...browser.Value) { got = ret })
			if len(got) != 2 || browser.Int(got[0]) != -1 || abi.Errno(browser.Int(got[1])) != abi.EINVAL {
				t.Errorf("ring call replied %v, want [-1 EINVAL]", got)
			}
			if w.task.ring != nil {
				t.Errorf("a refused registration installed a ring")
			}
		})
	}
	// The well-formed registration every ring world makes is accepted.
	w := newRingWorld(t)
	if w.task.ring == nil {
		t.Fatal("valid regions refused")
	}
}

// TestDrainRingHostileCursors: a doorbell whose request-ring cursors the
// guest pointed past the data area dispatches nothing, resets the ring,
// and leaves it serving the next well-formed frame.
func TestDrainRingHostileCursors(t *testing.T) {
	w := newCodecWorld(t)
	req := w.task.ring.req
	le.PutUint32(req.B[0:], ringWorldRing+100)
	le.PutUint32(req.B[4:], ringWorldRing+200)
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
