package fs

import (
	"sort"

	"repro/internal/abi"
)

// Write-back data path. The page cache historically was
// write-through-invalidate: every write went straight to the backend and
// dropped the cached pages. For chatty workloads (pdflatex appending to
// its .log/.aux files a few dozen bytes at a time) that means one backend
// call per tiny write. This file extends the cache with *dirty* state:
//
//   - writes on a write-capable handle are absorbed into per-path dirty
//     extents (adjacent/overlapping writes coalesce in place);
//   - a bounded dirty budget triggers a flush of everything when
//     exceeded (flush-on-overflow);
//   - an ordered flusher walks the extents in ascending offset order and
//     lands each as a single vectored Pwritev of page-sized segments —
//     N tiny writes become one backend call;
//   - barriers: fsync and close flush before replying; Open of a dirty
//     path flushes before the new handle is born (so every new reader or
//     writer observes flushed state); FlushCaches/Mount flush before
//     dropping (flush-on-unmount); every gen-bumping invalidation
//     (unlink, rename, truncate, O_TRUNC open) flushes first, through
//     the handle the extents were buffered by, so the bytes reach the
//     file they were written to even when the *name* moves on.
//
// Staleness rides the existing per-path invalidation generations: a
// writebackHandle captures the generation at open; once a mutating
// operation bumps it, the handle bypasses the dirty buffers and writes
// through its own backend handle — it keeps POSIX fd semantics and can
// never buffer bytes for the file the path *now* names.

// maxDirtyBytes is the default dirty budget (see SetDirtyBudget).
const maxDirtyBytes = 8 << 20

// dirtyExtent is one coalesced run of buffered bytes. An extent adopted
// from the zero-copy write path aliases the page-pool arena instead of
// holding its own copy: arenaEnd > 0 records the arena offset one past
// its last byte (aliased slices are always cap-clamped, so any append
// through data reallocates to the heap rather than clobbering the
// neighbouring slot).
type dirtyExtent struct {
	off      int64
	data     []byte
	arenaEnd int // 0 = heap-backed copy
}

func (e dirtyExtent) end() int64 { return e.off + int64(len(e.data)) }

// dirtyFile is the buffered, not-yet-flushed state of one path.
// Extents are ascending and disjoint; only slot adoption may leave two
// file-adjacent extents side by side (a staged run crossing a slot
// boundary) — the flusher coalesces those into one vectored write.
type dirtyFile struct {
	extents []dirtyExtent
	bytes   int64
	mtime   int64 // virtual time of the last buffered write
	born    int64 // virtual time of the first buffered write this epoch
	// slots pins adopted arena slots (one pin per adoption) until the
	// flusher lands their bytes; see writegrant.go for the ownership
	// protocol with the guest's own lease.
	slots []int
	// flush lands one extent on the backend, bound to the most recent
	// writer's (open) backend handle. Rebinding on every buffered write
	// keeps the closure valid: close flushes before the handle dies.
	flush func(off int64, bufs [][]byte, cb func(int, abi.Errno))
}

// insert merges [off, off+len(data)) into the extent list, newest write
// winning on overlap, and returns the net change in buffered bytes. The
// data is copied; callers may reuse their buffer.
func (df *dirtyFile) insert(off int64, data []byte) int64 {
	if len(data) == 0 {
		return 0
	}
	e := df.extents
	// Fast path: the pdflatex pattern — appending right after the last
	// extent — grows it in place.
	if n := len(e); n > 0 && off == e[n-1].end() {
		// Appending to an arena-aliased extent reallocates (cap-clamped
		// alias), leaving a heap-backed copy; its slot stays pinned in
		// df.slots until the flush, which is harmless.
		e[n-1].data = append(e[n-1].data, data...)
		e[n-1].arenaEnd = 0
		return int64(len(data))
	}
	end := off + int64(len(data))
	// Merge window: every extent overlapping or adjacent to [off, end].
	lo := sort.Search(len(e), func(i int) bool { return e[i].end() >= off })
	hi := sort.Search(len(e), func(i int) bool { return e[i].off > end })
	if lo == hi {
		ne := dirtyExtent{off: off, data: append([]byte(nil), data...)}
		df.extents = append(e[:lo:lo], append([]dirtyExtent{ne}, e[lo:]...)...)
		return int64(len(data))
	}
	newOff, newEnd := off, end
	var oldBytes int64
	if e[lo].off < newOff {
		newOff = e[lo].off
	}
	if e[hi-1].end() > newEnd {
		newEnd = e[hi-1].end()
	}
	buf := make([]byte, newEnd-newOff)
	for _, ext := range e[lo:hi] {
		oldBytes += int64(len(ext.data))
		copy(buf[ext.off-newOff:], ext.data)
	}
	copy(buf[off-newOff:], data) // the new write wins
	merged := dirtyExtent{off: newOff, data: buf}
	df.extents = append(e[:lo:lo], append([]dirtyExtent{merged}, e[hi:]...)...)
	return int64(len(buf)) - oldBytes
}

// insertOwned adopts data — a cap-clamped slice aliasing the pool arena,
// ending at arena offset arenaEnd — as dirty state without copying. Only
// the clean shapes qualify: growing the last extent when both the file
// offset and the arena offset continue exactly where it stopped (the
// append-storm shape: the extent re-slices over the wider arena run), or
// a brand-new extent overlapping nothing. Anything else returns false
// and the caller merges through the copying insert.
func (df *dirtyFile) insertOwned(off int64, data []byte, arenaEnd int, arena []byte) bool {
	if len(data) == 0 {
		return false
	}
	e := df.extents
	if n := len(e); n > 0 && off == e[n-1].end() &&
		e[n-1].arenaEnd > 0 && e[n-1].arenaEnd == arenaEnd-len(data) {
		base := e[n-1].arenaEnd - len(e[n-1].data)
		e[n-1].data = arena[base:arenaEnd:arenaEnd]
		e[n-1].arenaEnd = arenaEnd
		return true
	}
	end := off + int64(len(data))
	// idx is the first extent starting at or past end; with extents
	// ascending and disjoint, only e[idx-1] can overlap [off, end).
	idx := sort.Search(len(e), func(i int) bool { return e[i].off >= end })
	if idx > 0 && e[idx-1].end() > off {
		return false
	}
	ne := dirtyExtent{off: off, data: data, arenaEnd: arenaEnd}
	df.extents = append(e[:idx:idx], append([]dirtyExtent{ne}, e[idx:]...)...)
	return true
}

// overlay patches base (the backend's view of [off, off+len(base))) with
// the dirty extents intersecting [off, off+n), growing the result up to
// the buffered virtual EOF. Bytes between the backend's EOF and the
// virtual EOF that no extent covers read as zeros (sparse semantics) —
// including when the extent creating the virtual EOF lies entirely
// beyond the window, so a sequential reader walks through the hole
// instead of hitting a premature EOF.
func (df *dirtyFile) overlay(off int64, n int, base []byte) []byte {
	end := off + int64(n)
	vend := off + int64(len(base))
	if s := df.size(); s > vend {
		vend = min(s, end)
	}
	if vend == off+int64(len(base)) {
		anyOverlap := false
		for _, ext := range df.extents {
			if ext.off < off+int64(len(base)) && ext.end() > off {
				anyOverlap = true
				break
			}
		}
		if !anyOverlap {
			return base
		}
	}
	out := make([]byte, vend-off)
	copy(out, base)
	for _, ext := range df.extents {
		if ext.off >= end || ext.end() <= off {
			continue
		}
		src := ext.data
		dstOff := ext.off - off
		if dstOff < 0 {
			src = src[-dstOff:]
			dstOff = 0
		}
		copy(out[dstOff:], src)
	}
	return out
}

// size returns the buffered virtual EOF: the furthest extent end.
func (df *dirtyFile) size() int64 {
	if n := len(df.extents); n > 0 {
		return df.extents[n-1].end()
	}
	return 0
}

// pageChunks splits an extent into PageSize-bounded segments — the
// iovec list of the single coalesced Pwritev ("adjacent dirty pages" in
// one vectored backend call).
func pageChunks(data []byte) [][]byte {
	if len(data) <= PageSize {
		return [][]byte{data}
	}
	out := make([][]byte, 0, len(data)/PageSize+1)
	for o := 0; o < len(data); o += PageSize {
		e := o + PageSize
		if e > len(data) {
			e = len(data)
		}
		out = append(out, data[o:e])
	}
	return out
}

// ---------------------------------------------------------------------------
// FileSystem-level flush machinery.
// ---------------------------------------------------------------------------

// SetDirtyBudget bounds the bytes the write-back cache may buffer before
// forcing a flush of everything (deterministic overflow behaviour).
func (f *FileSystem) SetDirtyBudget(n int64) {
	if n <= 0 {
		n = maxDirtyBytes
	}
	f.dirtyBudget = n
}

// SetFlushTimer installs the virtual-time scheduler the age-based
// background flusher uses (the kernel wires the simulator's delayed-post
// here). Without a timer — or with a zero age — the flusher is off and
// flushes ride barriers and budget overflow only.
func (f *FileSystem) SetFlushTimer(schedule func(delayNs int64, fn func())) {
	f.flushTimer = schedule
	f.armFlushTimer()
}

// SetFlushAge sets the age (virtual ns) after which buffered dirty
// extents flush in the background, so quiet long-lived files land on the
// backend without an fsync. 0 disables age-based flushing.
func (f *FileSystem) SetFlushAge(ns int64) {
	f.flushAge = ns
	f.armFlushTimer()
}

// armFlushTimer schedules the next background-flush tick at the earliest
// moment any buffered file comes of age. No-op while nothing is dirty —
// the simulation stays quiescent — or while a tick is already pending.
func (f *FileSystem) armFlushTimer() {
	if f.flushAge <= 0 || f.flushTimer == nil || f.flushTimerArmed || len(f.pc.dirty) == 0 {
		return
	}
	due := int64(1) << 62
	for _, df := range f.pc.dirty {
		if d := df.born + f.flushAge; d < due {
			due = d
		}
	}
	delay := due - f.now()
	if delay < 1 {
		delay = 1
	}
	f.flushTimerArmed = true
	f.flushTimer(delay, f.flushTick)
}

// flushTick flushes every dirty file older than the configured age
// (counted as CacheStats.AgedFlushes), then re-arms for the next one.
// Flush errors are recorded per path and surface at the next fsync,
// like any background flush.
func (f *FileSystem) flushTick() {
	f.flushTimerArmed = false
	if f.flushAge <= 0 {
		return
	}
	now := f.now()
	var due []string
	for p, df := range f.pc.dirty {
		if now-df.born >= f.flushAge {
			due = append(due, p)
		}
	}
	sort.Strings(due)
	for _, p := range due {
		f.pc.agedFlushes.Add(1)
		f.flushDirtyNow(p)
	}
	f.armFlushTimer()
}

// flushPath writes one path's dirty extents back, in ascending offset
// order, one vectored Pwritev per extent, and reports the first error.
// The dirty state is detached before the writes are issued so re-entrant
// buffering during an asynchronous flush starts a fresh epoch.
func (f *FileSystem) flushPath(p string, cb func(abi.Errno)) {
	df := f.pc.dirty[p]
	if df == nil {
		cb(abi.OK)
		return
	}
	delete(f.pc.dirty, p)
	f.pc.dirtyBytes.Add(-df.bytes)
	f.pc.flushes.Add(1)
	// The flush changes the backend's size/mtime, and a stat taken while
	// the file was dirty may have cached the *pre-flush* backend
	// attributes (patchDirtyStat corrected the returned copy, not the
	// dentry). Drop the dentry around the writes so post-flush stats
	// re-consult the backend.
	f.dc.drop(p)
	// Coalesce file-adjacent extents into one vectored write each: the
	// copying insert merges adjacency away, but slot adoption leaves a
	// staged run crossing a slot boundary as back-to-back extents, and
	// they must still land as a single backend call.
	type flushRun struct {
		off  int64
		n    int
		bufs [][]byte
	}
	var runs []flushRun
	for _, ext := range df.extents {
		if len(runs) > 0 && runs[len(runs)-1].off+int64(runs[len(runs)-1].n) == ext.off {
			r := &runs[len(runs)-1]
			r.bufs = append(r.bufs, pageChunks(ext.data)...)
			r.n += len(ext.data)
			continue
		}
		runs = append(runs, flushRun{off: ext.off, n: len(ext.data), bufs: pageChunks(ext.data)})
	}
	var step func(i int, firstErr abi.Errno)
	step = func(i int, firstErr abi.Errno) {
		if i >= len(runs) {
			// The adopted bytes are on the backend (or lost to a
			// reported error): return the adopters' pins. Slots whose
			// guest lease already came back free here.
			for _, s := range df.slots {
				f.pc.pool.unpin(s)
			}
			df.slots = nil
			f.dc.drop(p)
			cb(firstErr)
			return
		}
		run := runs[i]
		f.pc.flushWrites.Add(1)
		df.flush(run.off, run.bufs, func(n int, err abi.Errno) {
			if firstErr == abi.OK && err != abi.OK {
				firstErr = err
			} else if firstErr == abi.OK && n < run.n {
				firstErr = abi.EIO
			}
			step(i+1, firstErr)
		})
	}
	step(0, abi.OK)
}

// flushErr is one recorded background-flush failure: the errno plus the
// path's generation at record time, so only handles bound to the file
// that actually lost the bytes ever see it.
type flushErr struct {
	err abi.Errno
	gen uint64
}

// recordFlushErr saves a fire-and-forget flush failure for the path, to
// be surfaced at the next fsync. Every barrier or background flush with
// no caller to report to routes its errno here; flushes whose caller
// receives the error directly (fsync, close, the facade's FlushDirty)
// do not, so an error is never reported twice.
func (f *FileSystem) recordFlushErr(p string, err abi.Errno) {
	if err == abi.OK {
		return
	}
	if len(f.pc.flushErrs) >= maxDentries {
		clear(f.pc.flushErrs) // size bound; errors this old are lost
	}
	f.pc.flushErrs[p] = flushErr{err: err, gen: f.pc.gen(p)}
}

// flushDirtyNow fires a path's flush without waiting for completion —
// the invalidation path (unlink/rename/truncate) must issue the buffered
// writes before the mutating backend operation dispatches, and on the
// in-memory backends they complete inline. A failure is recorded per
// path and surfaces at the *next fsync* on that path (not only at
// close), like a real kernel reporting deferred write-back errors.
func (f *FileSystem) flushDirtyNow(p string) {
	if f.pc.dirty[p] != nil {
		f.flushPath(p, func(err abi.Errno) { f.recordFlushErr(p, err) })
	}
}

// flushDirtyTreeNow fires flushes for a path and everything below it.
func (f *FileSystem) flushDirtyTreeNow(p string) {
	f.flushDirtyNow(p)
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	for k := range f.pc.dirty {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			f.flushDirtyNow(k)
		}
	}
}

// flushAllDirtyNow fires every buffered flush in sorted-path order
// (deterministic overflow and unmount behaviour).
func (f *FileSystem) flushAllDirtyNow() {
	if len(f.pc.dirty) == 0 {
		return
	}
	paths := make([]string, 0, len(f.pc.dirty))
	for p := range f.pc.dirty {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		f.flushDirtyNow(p)
	}
}

// FlushDirty flushes every buffered write and calls cb with the first
// error once all writes have completed (the sync(2) of the facade).
func (f *FileSystem) FlushDirty(cb func(abi.Errno)) {
	paths := make([]string, 0, len(f.pc.dirty))
	for p := range f.pc.dirty {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var step func(i int, firstErr abi.Errno)
	step = func(i int, firstErr abi.Errno) {
		if i >= len(paths) {
			cb(firstErr)
			return
		}
		f.flushPath(paths[i], func(err abi.Errno) {
			if firstErr == abi.OK {
				firstErr = err
			}
			step(i+1, firstErr)
		})
	}
	step(0, abi.OK)
}

// patchDirtyStat overlays buffered write-back state on a stat result:
// the virtual size (extents past the backend EOF) and the buffered
// mtime, so `make`-style freshness checks see the write the instant it
// is buffered, not the instant it is flushed.
func (f *FileSystem) patchDirtyStat(p string, st *abi.Stat) {
	df := f.pc.dirty[p]
	if df == nil || !st.IsRegular() {
		return
	}
	if s := df.size(); s > st.Size {
		st.Size = s
	}
	if df.mtime > st.Mtime {
		st.Mtime = df.mtime
	}
}

// Syncer is the optional FileHandle extension backing fsync: flush the
// handle's buffered write-back state to the backend before replying.
type Syncer interface {
	Sync(cb func(abi.Errno))
}

// writeBackable lets a backend opt out of the write-back data path.
// Backends that must observe (and fail) every write at write time —
// localStorage's quota accounting — stay write-through.
type writeBackable interface {
	WriteBackable() bool
}

func writeBackableBackend(b Backend) bool {
	if wb, ok := b.(writeBackable); ok {
		return wb.WriteBackable()
	}
	return !b.ReadOnly()
}

// ---------------------------------------------------------------------------
// writebackHandle: the write-capable handle of the write-back data path.
// ---------------------------------------------------------------------------

// writebackHandle buffers writes as dirty extents keyed by canonical
// path. Reads overlay the buffered extents on the backend's content
// (read-your-writes within the handle and, through the Open barrier,
// across handles). A stale generation downgrades it to exactly the old
// write-through-invalidate behaviour.
type writebackHandle struct {
	fs    *FileSystem
	path  string
	gen   uint64 // page-cache generation at open
	inner FileHandle
}

func (h *writebackHandle) current() bool { return h.fs.pc.gen(h.path) == h.gen }

// buffered reports whether this handle may use the dirty buffers.
func (h *writebackHandle) buffered() bool {
	return !h.fs.feat.NoWriteBack && !h.fs.feat.NoCaches && h.current()
}

func (h *writebackHandle) buffer(off int64, data []byte) {
	pc := h.fs.pc
	df := pc.dirty[h.path]
	if df == nil {
		df = &dirtyFile{born: h.fs.now()}
		pc.dirty[h.path] = df
	}
	df.flush = func(o int64, bufs [][]byte, cb func(int, abi.Errno)) {
		h.inner.Pwritev(o, bufs, cb)
	}
	delta := df.insert(off, data)
	df.bytes += delta
	pc.dirtyBytes.Add(delta)
	df.mtime = h.fs.now()
	pc.bufferedWrites.Add(1)
	// Content changed: clean pages and cached attributes for the path
	// are stale, but the generation stays — this handle (and the
	// name→file binding) is still current.
	pc.dropPages(h.path)
	h.fs.dc.drop(h.path)
	if pc.dirtyBytes.Load() > h.fs.dirtyBudget {
		pc.overflowFlushes.Add(1)
		h.fs.flushAllDirtyNow()
	}
	h.fs.armFlushTimer()
}

// PwriteSlots implements SlotWriter: adopt staged arena bytes as dirty
// extents in place — the zero-copy write path's landing zone. The clean
// sequential shapes alias the arena (pinning each adopted slot until the
// flush); overlapping or out-of-order refs merge through the copying
// insert, which is a kernel-internal move, not a crossing. Refusal
// (write-back off, stale handle) sends the caller down the copy path.
func (h *writebackHandle) PwriteSlots(off int64, refs []SlotRef) (int, bool) {
	if off < 0 || !h.buffered() {
		return 0, false
	}
	pc := h.fs.pc
	df := pc.dirty[h.path]
	if df == nil {
		df = &dirtyFile{born: h.fs.now()}
		pc.dirty[h.path] = df
	}
	df.flush = func(o int64, bufs [][]byte, cb func(int, abi.Errno)) {
		h.inner.Pwritev(o, bufs, cb)
	}
	arena := pc.pool.arena
	total := 0
	var delta int64
	for _, r := range refs {
		data := h.fs.SlotBytes(r)
		arenaEnd := r.Slot*PageSize + r.Off + r.Len
		if df.insertOwned(off+int64(total), data, arenaEnd, arena) {
			pc.pool.pin(r.Slot)
			df.slots = append(df.slots, r.Slot)
			delta += int64(r.Len)
		} else {
			delta += df.insert(off+int64(total), data)
		}
		total += r.Len
	}
	df.bytes += delta
	pc.dirtyBytes.Add(delta)
	df.mtime = h.fs.now()
	pc.bufferedWrites.Add(1)
	// Content changed: clean pages and cached attributes go, the
	// generation stays (reclaim-before-coalesce: dropped leased pages
	// freeze for their holders).
	pc.dropPages(h.path)
	h.fs.dc.drop(h.path)
	if pc.dirtyBytes.Load() > h.fs.dirtyBudget {
		pc.overflowFlushes.Add(1)
		h.fs.flushAllDirtyNow()
	}
	h.fs.armFlushTimer()
	return total, true
}

// Pwrite implements FileHandle: absorb into the dirty extents, or write
// through (with invalidation) when stale or write-back is off.
func (h *writebackHandle) Pwrite(off int64, data []byte, cb func(int, abi.Errno)) {
	if off < 0 {
		cb(0, abi.EINVAL)
		return
	}
	if !h.buffered() {
		h.fs.invalidatePath(h.path)
		h.inner.Pwrite(off, data, func(n int, err abi.Errno) {
			h.fs.invalidatePath(h.path)
			cb(n, err)
		})
		return
	}
	h.buffer(off, data)
	cb(len(data), abi.OK)
}

// Pwritev implements FileHandle: each segment lands back to back in the
// dirty extents (they coalesce into one), no backend call at all.
func (h *writebackHandle) Pwritev(off int64, bufs [][]byte, cb func(int, abi.Errno)) {
	if off < 0 {
		cb(0, abi.EINVAL)
		return
	}
	if !h.buffered() {
		h.fs.invalidatePath(h.path)
		h.inner.Pwritev(off, bufs, func(n int, err abi.Errno) {
			h.fs.invalidatePath(h.path)
			cb(n, err)
		})
		return
	}
	total := 0
	for _, b := range bufs {
		h.buffer(off+int64(total), b)
		total += len(b)
	}
	cb(total, abi.OK)
}

// Pread implements FileHandle: backend content overlaid with the
// buffered extents (read-your-writes). A handle that can no longer use
// the buffers (staled by an epoch clear, or write-back switched off)
// while dirty state for the path exists still barriers on a flush
// first, like every other read path — its own acknowledged writes must
// be visible in the bytes it reads.
func (h *writebackHandle) Pread(off int64, n int, cb func([]byte, abi.Errno)) {
	df := h.fs.pc.dirty[h.path]
	if df == nil || !h.buffered() {
		if df != nil {
			h.fs.flushPath(h.path, func(err abi.Errno) {
				h.fs.recordFlushErr(h.path, err)
				h.inner.Pread(off, n, cb)
			})
			return
		}
		h.inner.Pread(off, n, cb)
		return
	}
	h.inner.Pread(off, n, func(data []byte, err abi.Errno) {
		if err != abi.OK {
			cb(nil, err)
			return
		}
		cb(df.overlay(off, n, data), abi.OK)
	})
}

// Preadv implements FileHandle.
func (h *writebackHandle) Preadv(off int64, lens []int, cb func([][]byte, abi.Errno)) {
	genericPreadv(h, off, lens, cb)
}

// Stat implements FileHandle: the backend's attributes patched with the
// buffered virtual size/mtime (O_APPEND positioning depends on this).
func (h *writebackHandle) Stat(cb func(abi.Stat, abi.Errno)) {
	h.inner.Stat(func(st abi.Stat, err abi.Errno) {
		if err == abi.OK && h.buffered() {
			h.fs.patchDirtyStat(h.path, &st)
		}
		cb(st, err)
	})
}

// Truncate implements FileHandle: a barrier — flush, truncate, then
// re-capture the generation (our own truncate does not re-bind the
// name, so the handle stays current; other handles go stale).
func (h *writebackHandle) Truncate(size int64, cb func(abi.Errno)) {
	flush := func(done func(abi.Errno)) { done(abi.OK) }
	if h.buffered() {
		flush = func(done func(abi.Errno)) { h.fs.flushPath(h.path, done) }
	}
	flush(func(ferr abi.Errno) {
		if ferr != abi.OK {
			cb(ferr)
			return
		}
		recapture := h.buffered()
		h.fs.invalidatePath(h.path)
		h.inner.Truncate(size, func(err abi.Errno) {
			h.fs.invalidatePath(h.path)
			if recapture {
				h.gen = h.fs.pc.gen(h.path)
			}
			cb(err)
		})
	})
}

// Sync implements Syncer: the fsync barrier — every buffered extent is
// on the backend before the callback fires (flush-before-reply). A
// failure recorded by an earlier background/overflow flush of this path
// is surfaced (once) here, so callers that fsync learn about it even
// though the failing flush ran with no caller to tell. The generation
// check keeps the error with the file that lost the bytes: a handle on
// a later file reusing the name never inherits it.
func (h *writebackHandle) Sync(cb func(abi.Errno)) {
	h.fs.flushPath(h.path, func(err abi.Errno) {
		if saved, ok := h.fs.pc.flushErrs[h.path]; ok && saved.gen == h.gen {
			delete(h.fs.pc.flushErrs, h.path)
			if err == abi.OK {
				err = saved.err
			}
		}
		cb(err)
	})
}

// Close implements FileHandle: flush-on-close, reporting flush errors
// through close's result as POSIX allows.
func (h *writebackHandle) Close(cb func(abi.Errno)) {
	h.Sync(func(ferr abi.Errno) {
		h.inner.Close(func(cerr abi.Errno) {
			if ferr == abi.OK {
				ferr = cerr
			}
			cb(ferr)
		})
	})
}
