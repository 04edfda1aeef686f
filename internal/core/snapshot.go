package core

import (
	"sort"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/snapshot"
)

// Kernel side of the checkpoint/fork subsystem (internal/snapshot).
//
// Capture: a first boot of a runtime whose registry is still unsealed is
// asked (init["snapcap"]) to call "snapcap" once negotiation settles; the
// kernel freezes the task's heap into arena pages plus its fd/env/cwd
// template and registers the image under the executable path.
//
// Clone: a later Spawn of the same path skips the object-URL eval of the
// full artifact (a tiny stub script boots the worker), ships the image
// and a COW tracker by reference in the init message, and answers the
// worker's single "restore" call in place of the two-round-trip
// personality/ring negotiation.
//
// Checkpoint: CheckpointLive walks the same soft-dirty bitmap in
// iterative pre-copy rounds — bounded work per main-thread event while
// the guest keeps running — and a short final stop-copy, livecore's
// design expressed in events instead of signal-stopped threads.

// snapStubScriptSize is the boot stub served for clone boots in place of
// the full executable artifact: enough script to start the runtime shim,
// a small constant script-eval charge instead of megabytes.
const snapStubScriptSize = 4096

// Pre-copy tuning: at most precopyPagesPerEvent pages copy per
// main-thread event (the guest runs between events), for at most
// precopyMaxRounds rounds; a round whose dirty residue is at most
// precopyFinalDelta pages stops the guest for the final delta.
const (
	precopyPagesPerEvent = 64
	precopyMaxRounds     = 4
	precopyFinalDelta    = 16
)

// stubURL returns (and caches) the clone-boot stub object URL for path.
func (k *Kernel) stubURL(path string) string {
	if u, ok := k.stubURLs[path]; ok {
		return u
	}
	u := k.Sys.CreateObjectURL(make([]byte, snapStubScriptSize))
	k.stubURLs[path] = u
	return u
}

// fdInfos snapshots a task's open-descriptor table for an image or dump.
func (k *Kernel) fdInfos(t *Task) []snapshot.FdInfo {
	fds := t.Fds()
	out := make([]snapshot.FdInfo, 0, len(fds))
	for _, fd := range fds {
		out = append(out, snapshot.FdInfo{Fd: fd, Path: t.FdPath(fd)})
	}
	return out
}

// releaseTaskSnapshot returns a task's snapshot references: every image
// pin its tracker still holds (pages it exited without writing) comes
// back to the shared arena. Runs on exit and on exec, and is idempotent.
func (k *Kernel) releaseTaskSnapshot(t *Task) {
	if t.snapTracker != nil {
		t.snapTracker.ReleaseShared()
	}
	t.snapTracker = nil
	t.snapImage = nil
	t.snapcap = false
}

// doSnapcap handles the "snapcap" registration call: freeze the calling
// task's post-boot state as its executable's snapshot image.
func (k *Kernel) doSnapcap(t *Task, reply func(...browser.Value)) {
	if k.Snapshots == nil || k.Snapshots.Sealed() || !t.snapcap {
		reply(int64(-1), errv(abi.ENOSYS))
		return
	}
	img := snapshot.NewImage(t.Path)
	t.snapcap = false
	img.Env = append([]string(nil), t.Env...)
	img.Cwd = t.cwd
	img.Fds = k.fdInfos(t)
	if t.heap != nil {
		// Freezing the heap is one kernel-side pass over it.
		k.Sys.Sim.Charge(int64(float64(t.heap.Len()) * k.CPU.SyncByteNs))
		img.SetHeap(k.Snapshots.Store(), t.heap.Bytes())
	}
	if !k.Snapshots.Register(img) {
		img.Release()
		reply(int64(-1), errv(abi.EAGAIN))
		return
	}
	k.SnapshotCaptures.Add(1)
	reply(int64(0), errv(abi.OK))
}

// doRestore handles a clone boot's combined "restore" registration:
// personality and ring regions land in one round trip, because the
// restored heap already holds the layout the capture registered.
// Arguments: heap, ret offset, wake offset, ring flag, the two ring
// regions; the ret offset and the ring flag are not read. Reply: [ret,
// errno, 1]; the constant keeps the reply's clone size.
func (k *Kernel) doRestore(t *Task, a []browser.Value, reply func(...browser.Value)) {
	arg := func(i int) int64 { return browser.Int(argAt(a, i)) }
	if t.snapImage == nil || t.setPersonality(argAt(a, 0), arg(2)) != abi.OK ||
		k.registerRing(t, arg(4), arg(5), arg(6), arg(7)) != abi.OK {
		reply(int64(-1), errv(abi.EINVAL))
		return
	}
	reply(int64(0), errv(abi.OK), int64(1))
}

// CheckpointLive checkpoints a running guest with bounded pause: the
// memory image assembles over iterative pre-copy rounds — each
// main-thread event copies at most precopyPagesPerEvent pages, and the
// guest keeps running between events, its writes caught by the soft-dirty
// bitmap — until the dirty residue is small (or the round budget is
// spent), when one final stop-the-guest event copies the delta. The
// callback receives the finished Dump; PauseNs is the virtual length of
// that final event.
func (k *Kernel) CheckpointLive(pid int, cb func(*snapshot.Dump, abi.Errno)) {
	t := k.tasks[pid]
	if t == nil {
		cb(nil, abi.ESRCH)
		return
	}
	d := &snapshot.Dump{
		Pid:  t.Pid,
		Path: t.Path,
		Args: append([]string(nil), t.Args...),
		Env:  append([]string(nil), t.Env...),
		Cwd:  t.cwd,
		Fds:  k.fdInfos(t),
	}
	if t.heap == nil {
		// No registered heap (async transport): the fd/env/cwd template
		// is the whole checkpoint, done in this one event.
		cb(d, abi.OK)
		return
	}
	heap := t.heap
	hlen := heap.Len()
	d.HeapLen = hlen
	d.Mem = make([]byte, hlen)
	npages := (hlen + snapshot.PageSize - 1) / snapshot.PageSize

	tr := t.snapTracker
	if tr == nil || tr.NumPages() < npages {
		// Cold-booted guest: attach a dirty-only tracker for the
		// duration (it stays installed; soft-dirty marking is cheap and
		// a later checkpoint reuses it through the heap's hook).
		tr = snapshot.NewTracker(nil, npages)
		heap.SetDirtyTracker(tr)
	}

	// copyPages moves pages into the dump and charges the kernel for the
	// pass; the returned charge is the event's virtual copy cost.
	copyPages := func(pages []int) int64 {
		hb := heap.Bytes()
		var bytes int64
		for _, p := range pages {
			lo := p * snapshot.PageSize
			hi := lo + snapshot.PageSize
			if hi > hlen {
				hi = hlen
			}
			copy(d.Mem[lo:hi], hb[lo:hi])
			bytes += int64(hi - lo)
		}
		ns := int64(float64(bytes) * k.CPU.SyncByteNs)
		k.Sys.Sim.Charge(ns)
		return ns
	}

	finish := func() {
		// Final stop-copy, one event: whatever is still soft-dirty plus
		// the pages written through retained views that bypass the write
		// barriers (the wake/ret page, the ring regions) — those must
		// always re-copy, and doing them here keeps the image of the
		// pause consistent.
		final := map[int]bool{0: true}
		if r := t.ring; r != nil {
			markRange := func(off, n int64) {
				for p := int(off / snapshot.PageSize); p <= int((off+n-1)/snapshot.PageSize); p++ {
					if p >= 0 && p < npages {
						final[p] = true
					}
				}
			}
			markRange(r.reqOff, r.reqLen)
			markRange(r.repOff, r.repLen)
		}
		for _, p := range tr.DirtyPages() {
			final[p] = true
		}
		tr.ClearDirty()
		pages := make([]int, 0, len(final))
		for p := range final {
			pages = append(pages, p)
		}
		sort.Ints(pages)
		d.FinalPages = len(pages)
		d.PauseNs = copyPages(pages)
		cb(d, abi.OK)
	}

	var round func(n int, work []int)
	round = func(n int, work []int) {
		d.Rounds = n
		i := 0
		var step func()
		step = func() {
			chunk := work[i:]
			if len(chunk) > precopyPagesPerEvent {
				chunk = chunk[:precopyPagesPerEvent]
			}
			copyPages(chunk)
			d.PrecopyPages += len(chunk)
			i += len(chunk)
			if i < len(work) {
				// Yield the main thread: the guest runs, we resume with
				// the next chunk on a fresh event.
				k.Sys.Main.SetTimeout(0, step)
				return
			}
			if n >= precopyMaxRounds || tr.DirtyCount() <= precopyFinalDelta {
				finish()
				return
			}
			next := tr.DirtyPages()
			tr.ClearDirty()
			k.Sys.Main.SetTimeout(0, func() { round(n+1, next) })
		}
		step()
	}

	// Round 1 copies everything; later rounds only what went dirty while
	// the previous round was live.
	tr.ClearDirty()
	all := make([]int, npages)
	for p := range all {
		all[p] = p
	}
	round(1, all)
}
