// Package snapshot is the checkpoint/fork lifecycle layer (ROADMAP item
// 1, livecore-style): capture a runtime's post-boot state once — heap
// pages, fd table, cwd, env template, loader state — into an immutable
// Image, then boot every subsequent process of that runtime as a
// copy-on-write clone of the image instead of re-running init. A per-page
// soft-dirty bitmap (Tracker) makes the clone pay — in page-pool quota
// and in virtual time — only for pages it actually writes: clean pages
// stay one copy in the shared arena across all children, each holding one
// pin (the COW refcount) that returns on first write or at exit.
//
// The same bitmap drives live checkpointing: iterative pre-copy rounds
// walk the soft-dirty set while the guest keeps running, and a short
// final stop-copy bounds the pause — livecore's design, expressed in
// main-thread events instead of signal-stopped threads. CheckpointLive in
// internal/core builds on the Dump type here.
package snapshot

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fs"
)

// PageSize is the snapshot page granule — the page-pool slot size, so an
// image page maps 1:1 onto an arena slot.
const PageSize = fs.PageSize

// CowFaultNs is the virtual cost of a copy-on-write fault: the trap plus
// privately materializing one page in the faulting clone's heap. Charged
// to whichever context (guest or kernel) performs the first write.
const CowFaultNs = 6_000

// FdInfo describes one open descriptor in a captured fd table.
type FdInfo struct {
	Fd   int
	Path string
}

// Image is one immutable post-boot runtime snapshot. Heap pages live in
// an fs.ImageStore (arena slots, one base pin each) when the registry has
// one, or in private host memory otherwise; either way the bytes never
// change after Register.
type Image struct {
	// Path is the resolved executable path — the registry key, so every
	// process spawned from the same binary clones the same image. The
	// image holds no executable bytes: each kernel re-derives the
	// runtime program and kind from its own file system through its own
	// loader, so an image captured by one fleet instance boots clones in
	// every other.
	Path string
	// Env, Cwd, Fds are the captured process template (diagnostics and
	// the dump path; clones take their spawn-time values as usual).
	Env []string
	Cwd string
	Fds []FdInfo

	// HeapLen is the captured heap size in bytes; 0 for runtimes with no
	// registered heap (async transports), whose clones skip restore
	// entirely. The heap bytes hold the ring layout the capture
	// registered, so a clone re-registers it without the negotiation
	// round trips.
	HeapLen int

	store *fs.ImageStore
	slots []int    // arena slot per page (store != nil)
	priv  [][]byte // private page copies (store == nil fallback)
}

// NewImage starts an image for the executable at path.
func NewImage(path string) *Image {
	return &Image{Path: path}
}

// SetHeap captures heap into image pages. With a non-nil store the pages
// go into arena slots (shareable fleet-wide); if the store runs out of
// quota mid-capture — or store is nil — every page falls back to a
// private host copy, releasing any slots already taken, so capture never
// fails, it just loses cross-child arena sharing.
func (img *Image) SetHeap(store *fs.ImageStore, heap []byte) {
	img.HeapLen = len(heap)
	n := img.NumPages()
	if store != nil {
		slots := make([]int, 0, n)
		ok := true
		for p := 0; p < n && ok; p++ {
			var slot int
			slot, ok = store.Put(pageAt(heap, p))
			if ok {
				slots = append(slots, slot)
			}
		}
		if ok {
			img.store, img.slots = store, slots
			return
		}
		for _, s := range slots {
			store.Free(s)
		}
	}
	img.priv = make([][]byte, n)
	for p := 0; p < n; p++ {
		cp := make([]byte, PageSize)
		copy(cp, pageAt(heap, p))
		img.priv[p] = cp
	}
}

func pageAt(heap []byte, p int) []byte {
	lo := p * PageSize
	hi := lo + PageSize
	if hi > len(heap) {
		hi = len(heap)
	}
	return heap[lo:hi]
}

// NumPages returns the image's heap page count.
func (img *Image) NumPages() int { return (img.HeapLen + PageSize - 1) / PageSize }

// Pooled reports whether the heap pages live in the shared arena.
func (img *Image) Pooled() bool { return img.store != nil }

// CopyHeap host-copies the image heap into dst (a fresh clone heap).
// No virtual time is charged here: virtually the clone still *shares*
// every page with the image — it reads them through its own mapping of
// the arena — and only a write materializes a private copy (the tracker
// charges that fault).
func (img *Image) CopyHeap(dst []byte) {
	for p := 0; p < img.NumPages(); p++ {
		lo := p * PageSize
		hi := lo + PageSize
		if hi > img.HeapLen {
			hi = img.HeapLen
		}
		copy(dst[lo:hi], img.pageData(p))
	}
}

func (img *Image) pageData(p int) []byte {
	if img.store != nil {
		return img.store.Data(img.slots[p])
	}
	return img.priv[p]
}

// PinAll takes one clone reference on every image page — called when a
// clone boots, before its tracker starts returning pins page-by-page.
func (img *Image) PinAll() {
	if img.store == nil {
		return
	}
	for _, s := range img.slots {
		img.store.Pin(s)
	}
}

// UnpinPage returns one clone reference on page p (COW fault or exit).
func (img *Image) UnpinPage(p int) {
	if img.store == nil {
		return
	}
	img.store.Unpin(img.slots[p])
}

// PinCount returns page p's pin count including the store's base pin
// (balance checks: quiesced images show exactly 1).
func (img *Image) PinCount(p int) int {
	if img.store == nil {
		return 1
	}
	return img.store.PinCount(img.slots[p])
}

// Release frees the image's arena pages (registry teardown). Pages still
// referenced by live clones freeze until those references return.
func (img *Image) Release() {
	if img.store == nil {
		img.priv = nil
		return
	}
	for _, s := range img.slots {
		img.store.Free(s)
	}
	img.slots = nil
	img.store = nil
}

// SharedBrowserValue marks *Image as passed by reference through
// postMessage (browser.Shared), like a SharedArrayBuffer.
func (img *Image) SharedBrowserValue() {}

// Stats counts snapshot activity. All atomic: a fleet's instances share
// one registry across host threads.
type Stats struct {
	Captures        atomic.Int64 // images captured
	CloneBoots      atomic.Int64 // processes booted from an image
	CowFaults       atomic.Int64 // first-write faults (pages privatized)
	SharedPagesPeak atomic.Int64 // unused pages never materialize; diagnostics
}

// Registry maps resolved executable paths to captured images. A fleet
// shares one sealed registry across instances; a single instance owns a
// private unsealed one and captures lazily on first boot of each runtime.
type Registry struct {
	mu     sync.Mutex
	images map[string]*Image
	store  *fs.ImageStore
	sealed atomic.Bool
	stats  Stats
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{images: map[string]*Image{}}
}

// SetStore attaches the arena-backed store captures put heap pages into.
// First one wins: a fleet attaches the shared pool's store once and every
// instance captures into (and clones out of) the same arena. With no
// store, captured heaps fall back to private host copies.
func (r *Registry) SetStore(st *fs.ImageStore) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		r.store = st
	}
}

// Store returns the attached image store (nil if none).
func (r *Registry) Store() *fs.ImageStore {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store
}

// Lookup returns the image for path, or nil.
func (r *Registry) Lookup(path string) *Image {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.images[path]
}

// Register installs an image under its path. First registration wins;
// a sealed registry accepts nothing (the caller releases the loser).
func (r *Registry) Register(img *Image) bool {
	if r.sealed.Load() {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.images[img.Path]; dup {
		return false
	}
	r.images[img.Path] = img
	r.stats.Captures.Add(1)
	return true
}

// Seal freezes the registry read-only. A fleet must seal before its jobs
// run: with capture off, each instance's virtual clock depends only on
// the sealed content, never on which shard booted a runtime first.
func (r *Registry) Seal() { r.sealed.Store(true) }

// Sealed reports whether the registry accepts captures.
func (r *Registry) Sealed() bool { return r.sealed.Load() }

// Paths returns the registered executable paths, sorted.
func (r *Registry) Paths() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.images))
	for p := range r.images {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Stats returns the registry's counters.
func (r *Registry) Stats() *Stats { return &r.stats }

// VerifyBalanced checks that every image page is back to exactly its
// base pins — no clone leaked a COW reference. Call after all processes
// spawned from the registry have exited.
//
// Image pages are content-addressed, so one arena slot may back many
// image pages (a zeroed heap is mostly one slot; identical pages across
// images collapse too) and each occurrence holds one base pin. The
// ledger therefore counts expected occurrences PER SLOT across every
// pooled image and compares against the slot's live pin count, instead
// of assuming each page owns its slot with exactly one pin.
func (r *Registry) VerifyBalanced() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type slotKey struct {
		store *fs.ImageStore
		slot  int
	}
	expected := map[slotKey]int{}
	where := map[slotKey]string{} // first occurrence, for the error message
	for path, img := range r.images {
		if img.store == nil {
			continue // private host copies hold no pins
		}
		for p, s := range img.slots {
			k := slotKey{img.store, s}
			expected[k]++
			if _, ok := where[k]; !ok {
				where[k] = fmt.Sprintf("%s page %d", path, p)
			}
		}
	}
	for k, want := range expected {
		if got := k.store.PinCount(k.slot); got != want {
			return fmt.Errorf("snapshot: arena slot %d (%s) holds %d pins (want %d base pins)", k.slot, where[k], got, want)
		}
	}
	return nil
}

// Release frees every image (teardown; mainly tests).
func (r *Registry) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, img := range r.images {
		img.Release()
	}
	r.images = map[string]*Image{}
}

// Tracker is one process's per-page heap bitmap: which pages are still
// image-backed (shared; the COW set) and which were written since the
// last ClearDirty (soft-dirty; the pre-copy set). The runtime installs it
// as the heap SAB's DirtyTracker; kernel-side heap writes mark it too.
// It crosses the worker/kernel boundary by reference (browser.Shared) —
// both sides run on the same single-threaded Sim, so no locking.
type Tracker struct {
	img    *Image // nil for dirty-only trackers (live checkpoint of a cold boot)
	shared []bool
	dirty  []bool
	nshare int

	charge  func(int64) // virtual-time hook for COW fault cost
	faultNs int64
	stats   *Stats
}

// NewTracker creates a clone's tracker: every image page starts shared.
// img may be nil (dirty-only mode: no COW set, just the soft-dirty bits
// over npages pages).
func NewTracker(img *Image, npages int) *Tracker {
	t := &Tracker{img: img, dirty: make([]bool, npages)}
	if img != nil {
		if n := img.NumPages(); n < npages {
			npages = n
		}
		t.shared = make([]bool, len(t.dirty))
		for p := 0; p < npages; p++ {
			t.shared[p] = true
		}
		t.nshare = npages
	}
	return t
}

// SetFaultCharge installs the virtual-time charge hook for COW faults.
func (t *Tracker) SetFaultCharge(fn func(int64), ns int64) {
	t.charge, t.faultNs = fn, ns
}

// SetStats points fault counters at a registry's stats.
func (t *Tracker) SetStats(s *Stats) { t.stats = s }

// MarkDirty implements browser.DirtyTracker: a write of n bytes at off.
// The first write to a still-shared page is the COW fault: the page
// privatizes (its image pin returns) and the fault cost is charged.
func (t *Tracker) MarkDirty(off, n int) {
	if n <= 0 {
		return
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	for p := first; p <= last; p++ {
		if p < 0 || p >= len(t.dirty) {
			continue
		}
		t.dirty[p] = true
		if t.shared != nil && t.shared[p] {
			t.shared[p] = false
			t.nshare--
			t.img.UnpinPage(p)
			if t.charge != nil {
				t.charge(t.faultNs)
			}
			if t.stats != nil {
				t.stats.CowFaults.Add(1)
			}
		}
	}
}

// MarkPrivate privatizes page p without a fault charge — boot-time
// pre-marking of pages written through retained views that bypass the
// write barriers (ring regions, the wake/ret/scratch page).
func (t *Tracker) MarkPrivate(p int) {
	if p < 0 || p >= len(t.dirty) {
		return
	}
	t.dirty[p] = true
	if t.shared != nil && t.shared[p] {
		t.shared[p] = false
		t.nshare--
		t.img.UnpinPage(p)
	}
}

// SharedPages returns how many pages are still image-backed.
func (t *Tracker) SharedPages() int { return t.nshare }

// NumPages returns the tracked page count.
func (t *Tracker) NumPages() int { return len(t.dirty) }

// DirtyPages returns the pages written since the last ClearDirty, in
// ascending order — one pre-copy round's work list.
func (t *Tracker) DirtyPages() []int {
	var out []int
	for p, d := range t.dirty {
		if d {
			out = append(out, p)
		}
	}
	return out
}

// DirtyCount returns the soft-dirty page count.
func (t *Tracker) DirtyCount() int {
	n := 0
	for _, d := range t.dirty {
		if d {
			n++
		}
	}
	return n
}

// ClearDirty resets the soft-dirty bits (between pre-copy rounds).
func (t *Tracker) ClearDirty() {
	for p := range t.dirty {
		t.dirty[p] = false
	}
}

// ReleaseShared returns every remaining image pin — the process exited
// (or exec'd away) without writing those pages. Idempotent.
func (t *Tracker) ReleaseShared() {
	if t.shared == nil {
		return
	}
	for p, s := range t.shared {
		if s {
			t.shared[p] = false
			t.nshare--
			t.img.UnpinPage(p)
		}
	}
}

// SharedBrowserValue marks *Tracker as passed by reference through
// postMessage (browser.Shared).
func (t *Tracker) SharedBrowserValue() {}

// Dump is a live diagnostics checkpoint: the memory image and fd table
// of a running (or just-booted) guest, plus the pre-copy telemetry that
// proves the pause was bounded.
type Dump struct {
	Pid  int
	Path string
	Args []string
	Env  []string
	Cwd  string
	Fds  []FdInfo

	HeapLen int
	Mem     []byte // nil for heap-less (async-transport) guests

	Rounds       int   // pre-copy rounds run
	PrecopyPages int   // pages copied while the guest kept running
	FinalPages   int   // pages copied in the final stop event
	PauseNs      int64 // virtual length of the stop-the-guest event
}

// Encode renders the dump as a diagnostic text file.
func (d *Dump) Encode() []byte {
	var b []byte
	add := func(format string, a ...any) { b = append(b, fmt.Sprintf(format, a...)...) }
	add("browsix snapshot dump\n")
	add("pid: %d\n", d.Pid)
	add("path: %s\n", d.Path)
	add("args: %q\n", d.Args)
	add("env: %q\n", d.Env)
	add("cwd: %s\n", d.Cwd)
	add("fds:\n")
	for _, fd := range d.Fds {
		add("  %3d -> %s\n", fd.Fd, fd.Path)
	}
	add("heap: %d bytes (%d pages)\n", d.HeapLen, (d.HeapLen+PageSize-1)/PageSize)
	add("precopy: %d rounds, %d pages live-copied, %d pages in final delta\n",
		d.Rounds, d.PrecopyPages, d.FinalPages)
	add("pause: %dns virtual\n", d.PauseNs)
	if d.Mem != nil {
		add("mem (%d bytes):\n", len(d.Mem))
		for off := 0; off < len(d.Mem); off += 64 {
			end := off + 64
			if end > len(d.Mem) {
				end = len(d.Mem)
			}
			row := d.Mem[off:end]
			zero := true
			for _, c := range row {
				if c != 0 {
					zero = false
					break
				}
			}
			if zero {
				continue // sparse dump: all-zero rows elided
			}
			add("  %08x: % x\n", off, row)
		}
	}
	return b
}
