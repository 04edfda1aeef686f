package rt

import (
	"repro/internal/abi"
	"repro/internal/snapshot"
)

// Process-side half of the checkpoint/fork subsystem (internal/snapshot):
// a first boot captures its post-boot state with one snapcap call, and a
// clone boot restores the captured image instead of re-running init. The
// restored heap holds the abi heap layout, so the clone then registers
// it with the same single personality call a cold boot makes.

// captureSnapshot asks the kernel to freeze this process's post-boot
// state as the runtime's snapshot image. Called once, on the first cold
// boot of a runtime, after the personality registration and before
// main() — the moment every later process of this runtime would reach
// identically.
func (r *workerRT) captureSnapshot() {
	r.call(abi.SYS_snapcap, &abi.Args{})
}

// restoreFromImage fills this worker's heap from img, which it boots as a
// copy-on-write clone of.
func (r *workerRT) restoreFromImage(img *snapshot.Image, tracker *snapshot.Tracker) {
	// Host-copy the image heap into this worker's heap. No virtual time
	// is charged: virtually the clone still shares every page with the
	// image, and pays per page only on first write (the tracker's COW
	// fault).
	img.CopyHeap(r.heap.Bytes())
	r.heap.MarkDirty(0, img.HeapLen)
	if tracker == nil {
		return
	}
	tracker.SetFaultCharge(func(ns int64) { r.sim.Charge(ns) }, snapshot.CowFaultNs)
	r.heap.SetDirtyTracker(tracker)
	// Pages written through retained views bypass the write barriers,
	// so they privatize up front (they diverge within the first system
	// call anyway): the wake/scratch-base page and the ring regions.
	tracker.MarkPrivate(0)
	_, _, off, _ := abi.HeapRings(r.heap.Bytes())
	for p := off / snapshot.PageSize; p < tracker.NumPages(); p++ {
		tracker.MarkPrivate(p)
	}
}
