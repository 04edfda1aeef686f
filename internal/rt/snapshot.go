package rt

import (
	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/snapshot"
)

// Process-side half of the checkpoint/fork subsystem (internal/snapshot):
// a first boot captures its post-boot state with one "snapcap" call, and
// a clone boot restores the captured image instead of re-running init —
// one combined "restore" round trip replaces the personality + ring +
// pagepool negotiation sequence, because the image already records what
// those negotiations decided and the restored heap bytes already hold a
// pristine ring layout.

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// captureSnapshot asks the kernel to freeze this process's post-boot
// state as the runtime's snapshot image. Called once, on the first cold
// boot of a runtime, after transport negotiation and before main() — the
// moment every later process of this runtime would reach identically.
func (r *workerRT) captureSnapshot() {
	// An async runtime reports zeros: no ring, no pool, no scratch.
	r.asyncCall("snapcap", b2i(r.ringOK), b2i(r.poolOK), r.scratchTop)
}

// restoreFromImage boots this worker as a copy-on-write clone of img.
func (r *workerRT) restoreFromImage(img *snapshot.Image, tracker *snapshot.Tracker) {
	// Host-copy the image heap into this worker's mapping. No virtual
	// time is charged: virtually the clone still shares every page with
	// the image — it reads them through its own mapping of the arena,
	// the same fiction the zero-copy grant path established — and pays
	// per page only on first write (the tracker's COW fault).
	img.CopyHeap(r.heap.Bytes())

	hlen := int64(r.heap.Len())
	wantRing := img.RingOK && hlen >= int64(scratchBase+4*ringRegionSize)
	reqOff := hlen - 2*ringRegionSize
	repOff := hlen - ringRegionSize

	if tracker != nil {
		tracker.SetFaultCharge(func(ns int64) { r.sim.Charge(ns) }, snapshot.CowFaultNs)
		r.heap.SetDirtyTracker(tracker)
		// Pages written through retained views bypass the write
		// barriers, so they privatize up front (they diverge within the
		// first system call anyway): the wake/ret/scratch-base page and
		// the ring regions.
		tracker.MarkPrivate(0)
		if wantRing {
			for p := int(reqOff / snapshot.PageSize); p < tracker.NumPages(); p++ {
				tracker.MarkPrivate(p)
			}
		}
	}

	if wantRing {
		b := r.heap.Bytes()
		r.reqRing = abi.NewRing(b[reqOff : reqOff+ringRegionSize])
		r.repRing = abi.NewRing(b[repOff : repOff+ringRegionSize])
		r.reqRing.Reset()
		r.repRing.Reset()
	}

	// One combined registration replaces the three-negotiation boot
	// sequence: personality (heap + offsets), ring regions, and the
	// page-pool mapping, accepted or refused per the kernel's flags.
	ret, err := r.asyncCall("restore", r.heap, int64(syncRetOff), int64(syncWaitOff),
		b2i(wantRing), reqOff, int64(ringRegionSize), repOff, int64(ringRegionSize),
		b2i(img.PoolOK))
	if err != abi.OK {
		// Restore refused: fall back to the cold negotiation sequence
		// (the heap bytes are a superset of a fresh boot's, so this is
		// safe — just slower).
		r.asyncCall("personality", r.heap, int64(syncRetOff), int64(syncWaitOff))
		r.negotiateRing()
		r.negotiatePagePool()
		return
	}
	if wantRing && len(ret) > 2 && browser.Int(ret[2]) != 0 {
		r.ringOK = true
		r.scratchTop = reqOff
	}
	if len(ret) > 4 {
		if sab, ok := ret[4].(*browser.SAB); ok && sab != nil {
			r.pool = sab
			r.poolOK = true
		}
	}
}
