package fs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// Tests for the content-addressed dedup tier: N attachments faulting the
// same immutable bytes hold ONE arena copy, quota stays logical (so
// tenant behaviour is identical with dedup on/off), shared slots free
// exactly once after the last reference, and eviction under arena
// pressure prefers private pages.

// newDedupFS builds a FileSystem attached to pool with the given quota,
// with files staged on a read-only memfs mounted at /ro — the immutable
// base image every dedup test tenants share.
func newDedupFS(t *testing.T, pool *PagePool, quota int, files map[string]string) *FileSystem {
	t.Helper()
	img := NewMemFS(now)
	stage := NewFileSystem(img, func() int64 { return clock })
	for p, content := range files {
		if d := p[:strings.LastIndex(p, "/")]; d != "" {
			mustMkdirAll(t, stage, d)
		}
		mustWrite(t, stage, p, content)
	}
	img.SetReadOnly()
	f := newFS()
	f.SetPagePool(pool, quota)
	mustMkdirAll(t, f, "/ro")
	f.Mount("/ro", img)
	return f
}

func pageContent(seed byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%7)
	}
	return string(b)
}

func TestDedupSharesAcrossAttachments(t *testing.T) {
	pool := NewPagePool(64)
	content := pageContent(3, 2*PageSize+100) // 3 pages, short tail
	files := map[string]string{"/tree/hot.txt": content}
	f1 := newDedupFS(t, pool, 0, files)
	f2 := newDedupFS(t, pool, 0, files)

	if got := mustRead(t, f1, "/ro/tree/hot.txt"); got != content {
		t.Fatalf("tenant 1 read %d bytes, want %d", len(got), len(content))
	}
	entries, refs, hits := pool.DedupStats()
	if entries != 3 || refs != 3 || hits != 0 {
		t.Fatalf("after cold fault: entries=%d refs=%d hits=%d, want 3/3/0", entries, refs, hits)
	}

	// Second tenant reads the same bytes: every page is an index hit,
	// no new slot fills.
	if got := mustRead(t, f2, "/ro/tree/hot.txt"); got != content {
		t.Fatalf("tenant 2 read %d bytes, want %d", len(got), len(content))
	}
	entries, refs, hits = pool.DedupStats()
	if entries != 3 || refs != 6 || hits != 3 {
		t.Fatalf("after shared fault: entries=%d refs=%d hits=%d, want 3/6/3", entries, refs, hits)
	}
	cs := f2.CacheStats()
	if cs.DedupHits != 3 || cs.DedupPages != 3 || cs.SharedBytes != int64(len(content)) {
		t.Fatalf("tenant 2 stats: hits=%d pages=%d sharedBytes=%d, want 3/3/%d",
			cs.DedupHits, cs.DedupPages, cs.SharedBytes, len(content))
	}
	if cs.CachedPages != 3 {
		t.Fatalf("tenant 2 resident pages = %d, want 3", cs.CachedPages)
	}

	// Both tenants map the same physical slots.
	pg1 := f1.pc.files["/ro/tree/hot.txt"].pages
	pg2 := f2.pc.files["/ro/tree/hot.txt"].pages
	for idx, p1 := range pg1 {
		if p2 := pg2[idx]; p2.slot != p1.slot {
			t.Fatalf("page %d: tenant slots differ (%d vs %d)", idx, p1.slot, p2.slot)
		}
	}

	// Release order: first flush only drops references, the last frees.
	f1.FlushCaches()
	if entries, refs, _ = pool.DedupStats(); entries != 3 || refs != 3 {
		t.Fatalf("after tenant 1 flush: entries=%d refs=%d, want 3/3", entries, refs)
	}
	f2.FlushCaches()
	if entries, refs, _ = pool.DedupStats(); entries != 0 || refs != 0 {
		t.Fatalf("after last flush: entries=%d refs=%d, want 0/0", entries, refs)
	}
	if free := pool.FreeSlots(); free != pool.Slots() {
		t.Fatalf("free slots after teardown = %d, want %d", free, pool.Slots())
	}
}

func TestDedupQuotaChargedLogically(t *testing.T) {
	pool := NewPagePool(64)
	files := map[string]string{
		"/tree/a": pageContent(5, 2*PageSize),
		"/tree/b": pageContent(9, PageSize),
	}
	f1 := newDedupFS(t, pool, 0, files)
	f2 := newDedupFS(t, pool, 2, files) // room for exactly 2 pages

	mustRead(t, f1, "/ro/tree/a")
	mustRead(t, f2, "/ro/tree/a") // 2 shared refs: f2 now at quota
	if n := pool.pp.sharedBy(f2.pc.att); n != 2 {
		t.Fatalf("tenant 2 charged %d shared refs, want 2", n)
	}
	// The third page must evict /ro/tree/a from f2's own cache first —
	// shared references consume quota exactly like private slots, so
	// f2's eviction sequence is identical to a dedup-off run.
	mustRead(t, f2, "/ro/tree/b")
	cs := f2.CacheStats()
	if cs.CachedPages != 1 {
		t.Fatalf("tenant 2 resident pages = %d, want 1 (quota forced eviction)", cs.CachedPages)
	}
	if f2.pc.files["/ro/tree/a"] != nil {
		t.Fatal("tenant 2 still holds /ro/tree/a past its quota")
	}
	// Tenant 1 is untouched by its neighbour's pressure.
	if cs1 := f1.CacheStats(); cs1.CachedPages != 2 {
		t.Fatalf("tenant 1 resident pages = %d, want 2", cs1.CachedPages)
	}
	entries, refs, _ := pool.DedupStats()
	if entries != 3 || refs != 3 {
		t.Fatalf("entries=%d refs=%d, want 3/3", entries, refs)
	}
}

func TestDedupPublishRaceLoserFrees(t *testing.T) {
	pp := newPagePool(8)
	pp.ensure()
	a := pp.attach(0)
	b := pp.attach(0)
	h := sha256.Sum256([]byte("same content"))

	s1, st := pp.dedupAlloc(a)
	if st != allocOK {
		t.Fatalf("dedupAlloc a: %d", st)
	}
	s2, st := pp.dedupAlloc(b)
	if st != allocOK || s2 == s1 {
		t.Fatalf("dedupAlloc b: slot=%d st=%d", s2, st)
	}
	// Both "tenants" filled their slot with the same content; the second
	// publish loses the race, frees its slot, and adopts the canonical.
	if canon := pp.dedupPublish(s1, h); canon != s1 {
		t.Fatalf("first publish: canon=%d, want %d", canon, s1)
	}
	if canon := pp.dedupPublish(s2, h); canon != s1 {
		t.Fatalf("second publish: canon=%d, want %d", canon, s1)
	}
	if !pp.isFree(s2) {
		t.Fatal("losing slot was not freed")
	}
	if e, r, _ := pp.dedupStats(); e != 1 || r != 2 {
		t.Fatalf("entries=%d refs=%d, want 1/2", e, r)
	}

	pp.dedupDeref(a, s1)
	if !pp.isDedup(s1) || pp.isFree(s1) {
		t.Fatal("slot freed while a reference remains")
	}
	pp.dedupDeref(b, s1)
	if pp.isDedup(s1) || !pp.isFree(s1) {
		t.Fatal("slot not freed after the last reference")
	}
	if pp.sharedBy(a) != 0 || pp.sharedBy(b) != 0 || pp.usedBy(pp.dedupAtt) != 0 {
		t.Fatal("dedup accounting leaked after last deref")
	}
}

func TestDedupSharedSlotFreezesUnderLease(t *testing.T) {
	pp := newPagePool(8)
	pp.ensure()
	a := pp.attach(0)
	h := sha256.Sum256([]byte("leased"))
	slot, st := pp.dedupAlloc(a)
	if st != allocOK {
		t.Fatalf("dedupAlloc: %d", st)
	}
	copy(pp.arena[slot*PageSize:], "leased")
	if canon := pp.dedupPublish(slot, h); canon != slot {
		t.Fatalf("publish: %d", canon)
	}
	pp.pin(slot) // an outstanding clone pin
	pp.dedupDeref(a, slot)
	if !pp.isFrozen(slot) {
		t.Fatal("last deref under lease did not freeze the slot")
	}
	if got := string(pp.arena[slot*PageSize : slot*PageSize+6]); got != "leased" {
		t.Fatalf("frozen bytes changed: %q", got)
	}
	pp.unpin(slot)
	if !pp.isFree(slot) {
		t.Fatal("slot not freed after the last lease returned")
	}
}

func TestDedupImageStoreSharing(t *testing.T) {
	pool := NewPagePool(32)
	store := pool.ImageStore(0)

	// A zeroed heap collapses to one slot, one base pin per occurrence.
	zero := make([]byte, PageSize)
	s1, ok := store.Put(zero)
	if !ok {
		t.Fatal("Put zero page 1")
	}
	s2, ok := store.Put(zero)
	if !ok {
		t.Fatal("Put zero page 2")
	}
	if s1 != s2 {
		t.Fatalf("identical image pages in distinct slots: %d vs %d", s1, s2)
	}
	if n := store.PinCount(s1); n != 2 {
		t.Fatalf("shared image slot holds %d base pins, want 2", n)
	}
	// Short pages zero-pad before hashing: "x" and "x\0..." are the same
	// stored page.
	s3, ok := store.Put([]byte("x"))
	if !ok || s3 == s1 {
		t.Fatalf("Put short page: slot=%d ok=%v", s3, ok)
	}
	s4, _ := store.Put(append([]byte("x"), make([]byte, 100)...))
	if s4 != s3 {
		t.Fatalf("zero-padded equal pages in distinct slots: %d vs %d", s3, s4)
	}

	// Frees drop one base pin + one reference each; the slot survives
	// until the last image page referencing it is freed.
	store.Free(s2)
	if n := store.PinCount(s1); n != 1 {
		t.Fatalf("after one Free: %d pins, want 1", n)
	}
	if !pool.pp.isDedup(s1) {
		t.Fatal("slot unpublished while an image page still references it")
	}
	store.Free(s1)
	if pool.pp.isDedup(s1) || !pool.pp.isFree(s1) {
		t.Fatal("slot not freed after the last image page")
	}
	store.Free(s3)
	store.Free(s4)
	if e, r, _ := pool.DedupStats(); e != 0 || r != 0 {
		t.Fatalf("entries=%d refs=%d after teardown, want 0/0", e, r)
	}
}

func TestDedupImageAndFilePagesShareOneSlot(t *testing.T) {
	pool := NewPagePool(32)
	content := pageContent(11, PageSize) // exactly one full page
	f := newDedupFS(t, pool, 0, map[string]string{"/tree/seg": content})
	mustRead(t, f, "/ro/tree/seg")
	fileSlot := f.pc.files["/ro/tree/seg"].pages[0].slot

	// A snapshot image whose heap page carries the same bytes resolves
	// to the SAME arena slot: fs pages and image pages share one
	// content-addressed mechanism.
	store := pool.ImageStore(0)
	imgSlot, ok := store.Put([]byte(content))
	if !ok {
		t.Fatal("Put")
	}
	if imgSlot != fileSlot {
		t.Fatalf("image page slot %d != file page slot %d", imgSlot, fileSlot)
	}
	if n := store.PinCount(imgSlot); n != 1 {
		t.Fatalf("pins=%d, want 1 (cache references are not pins)", n)
	}
	if e, r, _ := pool.DedupStats(); e != 1 || r != 2 {
		t.Fatalf("entries=%d refs=%d, want 1/2", e, r)
	}
	f.FlushCaches()
	if !pool.pp.isDedup(imgSlot) {
		t.Fatal("image lost its page when the file cache flushed")
	}
	if !bytes.Equal(store.Data(imgSlot), []byte(content)) {
		t.Fatal("image bytes changed after cache flush")
	}
	store.Free(imgSlot)
	if free := pool.FreeSlots(); free != pool.Slots() {
		t.Fatalf("free slots = %d, want %d", free, pool.Slots())
	}
}

func TestDedupEvictionPrefersPrivateUnderArenaPressure(t *testing.T) {
	pool := NewPagePool(4)
	pool.SetSharedBudget(2)
	files := map[string]string{}
	for i := 0; i < 5; i++ {
		files[fmt.Sprintf("/tree/f%d", i)] = pageContent(byte(20+10*i), PageSize/2)
	}
	fA := newDedupFS(t, pool, 0, files)
	fB := newDedupFS(t, pool, 0, files)
	fB.SetFeatures(Features{NoDedup: true})

	// Tenant A: f0, f1 land in the shared tier (budget 2), f2 overflows
	// the budget into a private slot. Tenant B pins one more private
	// slot, filling the arena while A still has quota headroom.
	for i := 0; i < 3; i++ {
		mustRead(t, fA, fmt.Sprintf("/ro/tree/f%d", i))
	}
	mustRead(t, fB, "/ro/tree/f3")
	if cs := fA.CacheStats(); cs.CachedPages != 3 || cs.DedupPages != 2 {
		t.Fatalf("tenant A resident=%d shared=%d, want 3/2", cs.CachedPages, cs.DedupPages)
	}
	if free := pool.FreeSlots(); free != 0 {
		t.Fatalf("free slots = %d, want 0 (arena full)", free)
	}
	// A faults f4 under arena exhaustion: eviction must pick A's PRIVATE
	// file (f2) even though the fully shared f0/f1 are older in LRU
	// order — dropping a shared page frees no physical slot while the
	// dedup index still holds it.
	mustRead(t, fA, "/ro/tree/f4")
	for _, want := range []string{"/ro/tree/f0", "/ro/tree/f1", "/ro/tree/f4"} {
		if fA.pc.files[want] == nil {
			t.Errorf("%s evicted from tenant A, want resident", want)
		}
	}
	if fA.pc.files["/ro/tree/f2"] != nil {
		t.Error("/ro/tree/f2 still resident in tenant A, want evicted (only private page)")
	}
	if fB.pc.files["/ro/tree/f3"] == nil {
		t.Error("tenant B lost its page to tenant A's pressure")
	}
}

// dedupStats is a locked triple read for white-box tests.
func (pp *pagePool) dedupStats() (int64, int64, int64) {
	return pp.dedupEntries.Load(), pp.dedupRefsN.Load(), pp.dedupHitsN.Load()
}

func TestDedupOffMatchesPrivatePath(t *testing.T) {
	pool := NewPagePool(64)
	content := pageContent(7, PageSize+64)
	files := map[string]string{"/tree/x": content}
	f1 := newDedupFS(t, pool, 0, files)
	f2 := newDedupFS(t, pool, 0, files)
	f2.SetFeatures(Features{NoDedup: true})

	mustRead(t, f1, "/ro/tree/x")
	if got := mustRead(t, f2, "/ro/tree/x"); got != content {
		t.Fatalf("dedup-off read mismatch: %d bytes", len(got))
	}
	// f2's pages are private: same bytes, zero shared references.
	cs := f2.CacheStats()
	if cs.DedupPages != 0 || cs.SharedBytes != 0 || cs.DedupStores != 0 {
		t.Fatalf("dedup-off tenant recorded dedup activity: %+v", cs)
	}
	if cs.CachedPages != 2 {
		t.Fatalf("dedup-off resident pages = %d, want 2", cs.CachedPages)
	}
	if _, refs, _ := pool.DedupStats(); refs != 2 {
		t.Fatalf("pool refs = %d, want 2 (only the dedup-on tenant)", refs)
	}
}

// TestLeaseFreezesDroppedPages: a file page that a snapshot image shares
// (one deduped slot) and a clone still pins keeps its bytes after the
// cache drops it and the image is freed. The slot is never recycled
// meanwhile, and it thaws onto the free stack when the clone's pin
// returns.
func TestLeaseFreezesDroppedPages(t *testing.T) {
	pool := NewPagePool(64)
	content := pageContent(3, PageSize)
	f := newDedupFS(t, pool, 0, map[string]string{"/tree/seg": content})
	mustRead(t, f, "/ro/tree/seg")
	slot := f.pc.files["/ro/tree/seg"].pages[0].slot
	store := pool.ImageStore(0)
	if s, ok := store.Put([]byte(content)); !ok || s != slot {
		t.Fatalf("image page: slot=%d ok=%v, want the file's slot %d", s, ok, slot)
	}
	store.Pin(slot) // a clone still shares the page

	f.invalidatePath("/ro/tree/seg")
	store.Free(slot) // the image's last reference, the clone pin still out
	if !pool.pp.isFrozen(slot) {
		t.Fatalf("dropped pinned slot %d not frozen", slot)
	}
	if pool.pp.isFree(slot) {
		t.Fatalf("pinned slot %d recycled", slot)
	}
	// Churn the cache: stores must fill other slots, never this one.
	for i := 0; i < 32; i++ {
		f.pc.store(fmt.Sprintf("/churn%d", i), 0, bytes.Repeat([]byte{byte(i)}, PageSize), false)
	}
	if !bytes.Equal(store.Data(slot), []byte(content)) {
		t.Fatalf("frozen slot bytes changed under an outstanding pin")
	}

	if !store.Unpin(slot) {
		t.Fatalf("unpin failed")
	}
	if pool.pp.isFrozen(slot) || pool.pp.pinCount(slot) != 0 || !pool.pp.isFree(slot) {
		t.Fatalf("slot %d not returned to the free stack after the last pin", slot)
	}
}

// TestStoreNeverRewritesLeasedSlot: re-caching a page (same path, same
// index) fills a fresh slot when a snapshot clone pins the old one —
// pinned bytes are immutable.
func TestStoreNeverRewritesLeasedSlot(t *testing.T) {
	content := patterned(PageSize)
	f, _ := newCountedFS(t, content)
	h := openPaged(t, f, "/mnt/a/b/file.txt")
	warmRead(t, h, 0, len(content))
	old := f.pc.files["/mnt/a/b/file.txt"].pages[0].slot
	store := f.ImageStore(0)
	store.Pin(old)
	f.pc.store("/mnt/a/b/file.txt", 0, bytes.Repeat([]byte{0xEE}, PageSize), false)
	if pg := f.pc.files["/mnt/a/b/file.txt"].pages[0]; pg.slot == old {
		t.Fatalf("store reused pinned slot %d in place", old)
	}
	if !bytes.Equal(store.Data(old), []byte(content)) {
		t.Fatalf("pinned bytes rewritten by store")
	}
	if !store.Unpin(old) || f.CacheStats().PinnedPages != 0 {
		t.Fatalf("pin did not return")
	}
}
