package rt

import (
	"repro/internal/abi"
	"repro/internal/snapshot"
)

// Process-side half of the checkpoint/fork subsystem (internal/snapshot):
// a first boot captures its post-boot state with one "snapcap" call, and
// a clone boot restores the captured image instead of re-running init —
// one combined "restore" round trip replaces the personality + ring
// negotiation sequence, because every sync runtime carves its rings at
// the same heap offsets and the restored heap bytes already hold a
// pristine ring layout.

// captureSnapshot asks the kernel to freeze this process's post-boot
// state as the runtime's snapshot image. Called once, on the first cold
// boot of a runtime, after transport negotiation and before main() — the
// moment every later process of this runtime would reach identically.
// The call carries two transport words the kernel does not read; they
// keep the message its clone size.
func (r *workerRT) captureSnapshot() {
	r.asyncCall("snapcap", int64(0), int64(0))
}

// restoreFromImage boots this worker as a copy-on-write clone of img.
func (r *workerRT) restoreFromImage(img *snapshot.Image, tracker *snapshot.Tracker) {
	// Host-copy the image heap into this worker's mapping. No virtual
	// time is charged: virtually the clone still shares every page with
	// the image — it reads them through its own mapping of the arena —
	// and pays per page only on first write (the tracker's COW fault).
	img.CopyHeap(r.heap.Bytes())
	reqOff, repOff := r.carveRings()

	if tracker != nil {
		tracker.SetFaultCharge(func(ns int64) { r.sim.Charge(ns) }, snapshot.CowFaultNs)
		r.heap.SetDirtyTracker(tracker)
		// Pages written through retained views bypass the write
		// barriers, so they privatize up front (they diverge within the
		// first system call anyway): the wake/scratch-base page and the
		// ring regions.
		tracker.MarkPrivate(0)
		for p := int(reqOff / snapshot.PageSize); p < tracker.NumPages(); p++ {
			tracker.MarkPrivate(p)
		}
	}

	// One combined registration replaces the two-negotiation boot
	// sequence: personality (heap + offsets) and ring regions.
	_, err := r.asyncCall("restore", r.heap, int64(syncRetOff), int64(syncWaitOff),
		int64(1), reqOff, int64(ringRegionSize), repOff, int64(ringRegionSize))
	if err != abi.OK {
		// Restore refused: fall back to the cold negotiation sequence
		// (the heap bytes are a superset of a fresh boot's, so this is
		// safe — just slower).
		r.asyncCall("personality", r.heap, int64(syncRetOff), int64(syncWaitOff))
		r.negotiateRing()
	}
}
