package abi

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// minRingSize is a small ring region: the header and 64 data bytes.
const minRingSize = RingHdrSize + 64

// TestHeapRingsLayout: the rings sit at the top of the heap, one
// HeapRingSize region each, clear of the wake cell, and a heap smaller
// than HeapMinSize has no layout.
func TestHeapRingsLayout(t *testing.T) {
	for _, n := range []int{HeapMinSize, 1 << 20} {
		heap := make([]byte, n)
		req, rep, off, ok := HeapRings(heap)
		if !ok {
			t.Fatalf("%d-byte heap refused", n)
		}
		if off != n-2*HeapRingSize || off < HeapWakeOff+4 {
			t.Fatalf("%d-byte heap: rings at %d", n, off)
		}
		if &req.B[0] != &heap[off] || len(req.B) != HeapRingSize || &rep.B[0] != &heap[off+HeapRingSize] || len(rep.B) != HeapRingSize {
			t.Fatalf("%d-byte heap: rings do not tile the top of the heap", n)
		}
	}
	for _, n := range []int{0, 4, HeapMinSize - 1} {
		if _, _, _, ok := HeapRings(make([]byte, n)); ok {
			t.Fatalf("%d-byte heap accepted", n)
		}
	}
}

// TestCallFrameSize pins CallFrame at 240 bytes on 64-bit platforms:
// inside Go's 256-byte allocation class. A frame moves to the kernel
// instead of being cloned and comes back to its runtime's CallPool, so
// a warm call allocates no frame; the pin bounds what a pool grows by
// and what a frame posted outside a pool (exit's) costs. One more
// word-sized field moves it to the 288-byte class.
func TestCallFrameSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(CallFrame{}); got != 240 {
		t.Fatalf("unsafe.Sizeof(CallFrame{}) = %d, want 240", got)
	}
}

func TestIovecRoundTrip(t *testing.T) {
	iovs := []Iovec{{Ptr: 64, Len: 4096}, {Ptr: 4160, Len: 65536}, {Ptr: 1 << 40, Len: 1}}
	buf := make([]byte, len(iovs)*IovecSize)
	if n := PackIovecs(buf, iovs); n != len(buf) {
		t.Fatalf("packed %d bytes, want %d", n, len(buf))
	}
	got := UnpackIovecs(buf, len(iovs))
	if len(got) != len(iovs) {
		t.Fatalf("unpacked %d iovecs, want %d", len(got), len(iovs))
	}
	for i := range iovs {
		if got[i] != iovs[i] {
			t.Fatalf("iovec %d: got %+v want %+v", i, got[i], iovs[i])
		}
	}
}

func TestRingCallRoundTrip(t *testing.T) {
	r := NewRing(make([]byte, 256))
	r.Reset()
	if _, _, _, ok := r.PopCall(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	if !r.PushCall(7, SYS_read, []int64{3, 64, 4096}) {
		t.Fatal("push failed on empty ring")
	}
	if !r.PushCall(8, SYS_getpid, nil) {
		t.Fatal("second push failed")
	}
	seq, trap, args, ok := r.PopCall()
	if !ok || seq != 7 || trap != SYS_read || len(args) != 3 || args[2] != 4096 {
		t.Fatalf("pop 1: seq=%d trap=%d args=%v ok=%v", seq, trap, args, ok)
	}
	seq, trap, args, ok = r.PopCall()
	if !ok || seq != 8 || trap != SYS_getpid || len(args) != 0 {
		t.Fatalf("pop 2: seq=%d trap=%d args=%v ok=%v", seq, trap, args, ok)
	}
	if r.Used() != 0 {
		t.Fatalf("ring not drained: %d bytes used", r.Used())
	}
}

func TestRingWrapAround(t *testing.T) {
	// A small ring forces the cursors to wrap mid-frame many times.
	r := NewRing(make([]byte, minRingSize))
	r.Reset()
	seq := uint32(0)
	for i := 0; i < 100; i++ {
		for r.PushCall(seq, SYS_write, []int64{int64(seq), 2, 3}) {
			seq++
		}
		for {
			got, trap, args, ok := r.PopCall()
			if !ok {
				break
			}
			if trap != SYS_write || args[0] != int64(got) {
				t.Fatalf("iter %d: frame corrupted: seq=%d trap=%d args=%v", i, got, trap, args)
			}
		}
		if r.Used() != 0 {
			t.Fatalf("iter %d: residue %d bytes", i, r.Used())
		}
	}
	if seq < 100 {
		t.Fatalf("only %d frames pushed through a wrapping ring", seq)
	}
}

func TestRingPopCallRejectsMalformedFrames(t *testing.T) {
	// The ring lives in guest-writable shared memory: a frame whose
	// nargs disagrees with its size must be dropped, not drive a huge
	// allocation or an out-of-frame read.
	r := NewRing(make([]byte, 256))
	r.Reset()
	r.PushCall(1, SYS_read, []int64{1, 2, 3})
	// Corrupt nargs (offset: header 8 + frame base, nargs at +12).
	binary.LittleEndian.PutUint32(r.B[RingHdrSize+12:], 0xFFFF)
	if _, _, _, ok := r.PopCall(); ok {
		t.Fatal("malformed frame popped successfully")
	}
	if r.Used() != 0 {
		t.Fatalf("ring not reset after malformed frame: %d used", r.Used())
	}
	// A healthy ring keeps working after the reset.
	if !r.PushCall(2, SYS_getpid, nil) {
		t.Fatal("push after reset failed")
	}
	if seq, trap, _, ok := r.PopCall(); !ok || seq != 2 || trap != SYS_getpid {
		t.Fatalf("post-reset pop: seq=%d trap=%d ok=%v", seq, trap, ok)
	}
}

func TestRingReplyRoundTripAndFull(t *testing.T) {
	r := NewRing(make([]byte, minRingSize))
	r.Reset()
	pushed := 0
	for r.PushReply(uint32(pushed), int64(1000+pushed), EAGAIN) {
		pushed++
	}
	if pushed == 0 {
		t.Fatal("no replies fit")
	}
	for i := 0; i < pushed; i++ {
		seq, ret, errno, ok := r.PopReply()
		if !ok || seq != uint32(i) || ret != int64(1000+i) || errno != EAGAIN {
			t.Fatalf("reply %d: seq=%d ret=%d errno=%v ok=%v", i, seq, ret, errno, ok)
		}
	}
	if _, _, _, ok := r.PopReply(); ok {
		t.Fatal("pop from drained reply ring succeeded")
	}
	// Negative return values survive the u64 crossing.
	r.PushReply(9, -1, EPIPE)
	_, ret, errno, _ := r.PopReply()
	if ret != -1 || errno != EPIPE {
		t.Fatalf("ret=%d errno=%v", ret, errno)
	}
}

// hostileRegion is a 1 KiB ring region (1016 data bytes) whose cursor
// header the guest has overwritten.
func hostileRegion(head, tail uint32) Ring {
	r := NewRing(make([]byte, 1024))
	binary.LittleEndian.PutUint32(r.B[0:], head)
	binary.LittleEndian.PutUint32(r.B[4:], tail)
	return r
}

// allocatedBy returns the bytes allocated while fn ran. Like
// testing.AllocsPerRun it runs on one P, so other goroutines allocate
// less in the window.
func allocatedBy(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRingHostileCursors: cursors live in guest-writable memory, so a
// cursor at or past the data length is corruption. PopCall resets the
// ring and PushReply refuses; neither panics, and no guest value drives
// an allocation larger than one maximum-size frame.
func TestRingHostileCursors(t *testing.T) {
	cases := []struct {
		name       string
		head, tail uint32
		frameSize  uint32 // written at the head when nonzero
		pop        bool   // PopCall, else PushReply
	}{
		{"pop/both-past-data", 2000, 2100, 0, true},
		{"push/head-past-tail", 3000, 2000, 0, false},
		{"pop/huge-frame", 0, 0x7fffff00, 1 << 30, true},
	}
	// No subtests: a subtest's parent goroutine could allocate while the
	// measurement runs. Another goroutine's allocation can still land in
	// a window and only adds to it, so each case runs in 5 windows, each
	// on a fresh region built outside it, and the least counts: an
	// allocation the call itself makes shows in every window.
	for _, c := range cases {
		least := uint64(math.MaxUint64)
		for w := 0; w < 5; w++ {
			r := hostileRegion(c.head, c.tail)
			if c.frameSize != 0 {
				binary.LittleEndian.PutUint32(r.B[RingHdrSize:], c.frameSize)
			}
			var ok bool
			least = min(least, allocatedBy(func() {
				if c.pop {
					_, _, _, ok = r.PopCall()
				} else {
					ok = r.PushReply(1, 2, OK)
				}
			}))
			if ok {
				t.Fatalf("%s: corrupt ring accepted the operation", c.name)
			}
			if c.pop && r.Used() != 0 {
				t.Fatalf("%s: PopCall left the corrupt ring unreset (%d bytes used)", c.name, r.Used())
			}
		}
		if least >= 1024 {
			t.Fatalf("%s: allocated %d bytes in the least of 5 windows", c.name, least)
		}
	}
	// A frame size beyond the largest call frame is corruption even with
	// sane cursors.
	r := NewRing(make([]byte, 1024))
	r.Reset()
	r.PushCall(1, SYS_read, []int64{1, 2, 3})
	binary.LittleEndian.PutUint32(r.B[RingHdrSize:], 1<<30)
	if _, _, _, ok := r.PopCall(); ok || r.Used() != 0 {
		t.Fatalf("oversized frame: ok=%v used=%d, want a reset ring", ok, r.Used())
	}
}

// FuzzRingRegion drives every ring operation over raw region bytes,
// cursor header included: nothing may panic, a popped frame carries at
// most 16 arguments, and a reply pushed into an empty ring pops back.
func FuzzRingRegion(f *testing.F) {
	region := func(head, tail uint32, data ...byte) []byte {
		b := make([]byte, RingHdrSize, RingHdrSize+len(data))
		binary.LittleEndian.PutUint32(b[0:], head)
		binary.LittleEndian.PutUint32(b[4:], tail)
		return append(b, data...)
	}
	f.Add(region(0, 0))
	f.Add(region(2000, 2100, make([]byte, 1016)...))
	f.Add(region(3000, 2000, make([]byte, 1016)...))
	f.Add(region(0, 0x7fffff00, 0, 0, 0, 0x40))
	ok := NewRing(make([]byte, 256))
	ok.Reset()
	ok.PushCall(7, SYS_read, []int64{3, 64, 4096})
	ok.PushCall(8, SYS_getpid, nil)
	f.Add(append([]byte(nil), ok.B...))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<16 {
			return
		}
		if len(b) < minRingSize {
			b = append(b, make([]byte, minRingSize-len(b))...)
		}
		r := NewRing(b)
		for i := 0; ; i++ {
			if i > len(b)/callFrameHdr {
				t.Fatalf("PopCall popped more frames than the region holds")
			}
			_, _, args, ok := r.PopCall()
			if !ok {
				break
			}
			if len(args) > maxCallArgs {
				t.Fatalf("popped %d args", len(args))
			}
		}
		if r.Free() < 0 || r.Used() < 0 {
			t.Fatalf("used=%d free=%d", r.Used(), r.Free())
		}
		empty := r.Used() == 0
		if r.PushReply(5, -1, EPIPE) && empty {
			if seq, ret, errno, ok := r.PopReply(); !ok || seq != 5 || ret != -1 || errno != EPIPE {
				t.Fatalf("reply round trip: seq=%d ret=%d errno=%v ok=%v", seq, ret, errno, ok)
			}
		}
		r.PushCall(1, SYS_getpid, []int64{1})
		r.PopReply()
	})
}
