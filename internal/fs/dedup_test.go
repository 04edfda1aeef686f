package fs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/abi"
)

// Tests for the content-addressed dedup tier: N attachments faulting the
// same immutable bytes hold ONE copy, quota stays logical (so tenant
// behaviour is identical with dedup on/off), a shared page leaves the
// index exactly once after the last reference, and no holder of a page
// ever sees its bytes change.

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
	pool := NewPagePool()
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
	// no new page fills.
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

	// Both tenants hold the same physical pages.
	pg1 := f1.pc.files["/ro/tree/hot.txt"].pages
	pg2 := f2.pc.files["/ro/tree/hot.txt"].pages
	for idx, p1 := range pg1 {
		if p2 := pg2[idx]; &p2.data[0] != &p1.data[0] {
			t.Fatalf("page %d: tenants hold distinct copies", idx)
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
	if n := pool.pp.sharedBy(f1.pc.att) + pool.pp.sharedBy(f2.pc.att); n != 0 {
		t.Fatalf("%d shared references still charged after teardown", n)
	}
}

func TestDedupQuotaChargedLogically(t *testing.T) {
	pool := NewPagePool()
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
	// shared references consume quota exactly like private pages, so
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
	pp := newPagePool()
	a := pp.attach(0)
	b := pp.attach(0)
	h := sha256.Sum256([]byte("same content"))

	// Both "tenants" missed and filled a fresh page with the same
	// content; the second publish loses the race and adopts the
	// canonical page, its own fresh page left to the collector.
	pa, pb := []byte("same content"), []byte("same content")
	ea := pp.dedupPublish(a, h, pa)
	if ea == nil || &ea.page[0] != &pa[0] {
		t.Fatal("first publish did not index its own page")
	}
	if eb := pp.dedupPublish(b, h, pb); eb != ea {
		t.Fatal("second publish did not adopt the canonical page")
	}
	if e, r, _ := pp.dedupStats(); e != 1 || r != 2 {
		t.Fatalf("entries=%d refs=%d, want 1/2", e, r)
	}

	pp.dedupDeref(a, ea)
	if pp.dedupIdx[h] != ea {
		t.Fatal("page left the index while a reference remains")
	}
	pp.dedupDeref(b, ea)
	if _, ok := pp.dedupIdx[h]; ok {
		t.Fatal("page still indexed after the last reference")
	}
	if pp.sharedBy(a) != 0 || pp.sharedBy(b) != 0 {
		t.Fatal("dedup accounting leaked after last deref")
	}
}

func TestDedupImageStoreSharing(t *testing.T) {
	pool := NewPagePool()
	store := pool.ImageStore(0)

	// A zeroed heap collapses to one page, one reference per occurrence.
	zero := make([]byte, PageSize)
	p1, ok := store.Put(zero)
	if !ok {
		t.Fatal("Put zero page 1")
	}
	p2, ok := store.Put(zero)
	if !ok {
		t.Fatal("Put zero page 2")
	}
	if &p1[0] != &p2[0] {
		t.Fatal("identical image pages stored twice")
	}
	if e, r, _ := pool.DedupStats(); e != 1 || r != 2 {
		t.Fatalf("entries=%d refs=%d, want 1/2", e, r)
	}
	// Short pages zero-pad before hashing: "x" and "x\0..." are the same
	// stored page.
	p3, ok := store.Put([]byte("x"))
	if !ok || &p3[0] == &p1[0] || len(p3) != PageSize {
		t.Fatalf("Put short page: len=%d ok=%v", len(p3), ok)
	}
	p4, _ := store.Put(append([]byte("x"), make([]byte, 100)...))
	if &p4[0] != &p3[0] {
		t.Fatal("zero-padded equal pages stored twice")
	}

	// Each Free drops one reference; the page stays indexed until the
	// last image page referencing it is freed.
	store.Free(p2)
	if e, r, _ := pool.DedupStats(); e != 2 || r != 3 {
		t.Fatalf("after one Free: entries=%d refs=%d, want 2/3", e, r)
	}
	store.Free(p1)
	store.Free(p3)
	store.Free(p4)
	if e, r, _ := pool.DedupStats(); e != 0 || r != 0 {
		t.Fatalf("entries=%d refs=%d after teardown, want 0/0", e, r)
	}
	if n := pool.pp.sharedBy(store.att); n != 0 {
		t.Fatalf("store still charged %d references", n)
	}
}

func TestDedupImageAndFilePagesShareOneSlot(t *testing.T) {
	pool := NewPagePool()
	content := pageContent(11, PageSize) // exactly one full page
	f := newDedupFS(t, pool, 0, map[string]string{"/tree/seg": content})
	mustRead(t, f, "/ro/tree/seg")
	filePage := f.pc.files["/ro/tree/seg"].pages[0].data

	// A snapshot image whose heap page carries the same bytes resolves
	// to the SAME page: fs pages and image pages share one
	// content-addressed mechanism.
	store := pool.ImageStore(0)
	imgPage, ok := store.Put([]byte(content))
	if !ok {
		t.Fatal("Put")
	}
	if &imgPage[0] != &filePage[0] {
		t.Fatal("image page and file page are distinct copies")
	}
	if e, r, _ := pool.DedupStats(); e != 1 || r != 2 {
		t.Fatalf("entries=%d refs=%d, want 1/2", e, r)
	}
	f.FlushCaches()
	if e, r, _ := pool.DedupStats(); e != 1 || r != 1 {
		t.Fatalf("image lost its page when the file cache flushed: entries=%d refs=%d", e, r)
	}
	if !bytes.Equal(imgPage, []byte(content)) {
		t.Fatal("image bytes changed after cache flush")
	}
	store.Free(imgPage)
	if e, r, _ := pool.DedupStats(); e != 0 || r != 0 {
		t.Fatalf("entries=%d refs=%d after Free, want 0/0", e, r)
	}
}

// dedupStats is a triple read for white-box tests.
func (pp *pagePool) dedupStats() (int64, int64, int64) {
	return pp.dedupEntries.Load(), pp.dedupRefsN.Load(), pp.dedupHitsN.Load()
}

// usedBy returns the private pages charged to an attachment.
func (pp *pagePool) usedBy(att int) int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.used[att]
}

// sharedBy returns the shared-page references charged to an attachment.
func (pp *pagePool) sharedBy(att int) int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.sharedRefs[att]
}

func TestDedupOffMatchesPrivatePath(t *testing.T) {
	pool := NewPagePool()
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

// checkHeldPageKeepsItsBytes: a cached page that a snapshot image also
// holds (one deduped page), and the views a warm read returned of it,
// keep the bytes they had after the cache lets go of the page by action
// — "drop" (invalidate), "rewrite" (re-cache its index with other bytes)
// or "evict" (quota pressure) — and after the image frees it, the last
// reference, which takes the page out of the dedup index. A clone booted
// from the image copies the image's pages, so it reads these same bytes.
// No page is ever rewritten in place, so no holder needs a pin; the
// cache goes on serving the file's current bytes.
func checkHeldPageKeepsItsBytes(t *testing.T, action string) {
	t.Helper()
	content := pageContent(3, PageSize)
	other := strings.Repeat("\xee", PageSize)
	pool := NewPagePool()
	files := map[string]string{"/tree/seg": content}
	for i := 0; i < 3; i++ {
		files[fmt.Sprintf("/tree/f%d", i)] = pageContent(byte(40+i), PageSize)
	}
	f := newDedupFS(t, pool, 2, files) // room for two pages
	h := openPaged(t, f, "/ro/tree/seg")
	warmRead(t, h, 0, PageSize) // cold: caches the page
	var views [][]byte
	h.Preadv(0, []int{PageSize}, func(v [][]byte, err abi.Errno) { views = v })
	cached := f.pc.files["/ro/tree/seg"].pages[0].data
	if len(views) != 1 || &views[0][0] != &cached[0] {
		t.Fatal("warm Preadv did not return a view of the cached page")
	}
	store := pool.ImageStore(0)
	imgPage, ok := store.Put([]byte(content))
	if !ok || &imgPage[0] != &cached[0] {
		t.Fatal("image page is not the cached page")
	}

	switch action {
	case "drop":
		f.invalidatePath("/ro/tree/seg")
	case "rewrite":
		f.pc.store("/ro/tree/seg", 0, []byte(other), true)
		if got := string(f.pc.files["/ro/tree/seg"].pages[0].data); got != other {
			t.Fatal("rewritten page does not serve the new bytes")
		}
	case "evict":
		for i := 0; i < 3; i++ {
			mustRead(t, f, fmt.Sprintf("/ro/tree/f%d", i))
		}
		if f.pc.files["/ro/tree/seg"] != nil {
			t.Fatal("quota pressure did not evict the page")
		}
	}
	if string(imgPage) != content || string(views[0]) != content {
		t.Fatalf("%s changed bytes a holder still reads", action)
	}
	store.Free(imgPage)
	pool.pp.mu.Lock()
	e := pool.pp.dedupIdx[sha256.Sum256([]byte(content))]
	pool.pp.mu.Unlock()
	if e != nil {
		t.Fatalf("after %s and the image's free the page is still indexed (refs=%d)", action, e.refs)
	}
	if string(imgPage) != content || string(views[0]) != content {
		t.Fatalf("%s then the last deref changed bytes a holder still reads", action)
	}
	if got := mustRead(t, f, "/ro/tree/seg"); action != "rewrite" && got != content {
		t.Fatalf("after %s the file reads %d other bytes", action, len(got))
	}
}

// TestLeaseFreezesDroppedPages: a held page keeps its bytes after the
// cache drops it on invalidation.
func TestLeaseFreezesDroppedPages(t *testing.T) { checkHeldPageKeepsItsBytes(t, "drop") }

// TestStoreNeverRewritesLeasedSlot: re-caching a page (same path, same
// index) fills a fresh page; the held one keeps its bytes.
func TestStoreNeverRewritesLeasedSlot(t *testing.T) { checkHeldPageKeepsItsBytes(t, "rewrite") }

// TestDedupSharedSlotFreezesUnderLease: a deduped page that quota
// pressure evicts from the cache, and whose last reference the image
// then drops, keeps its bytes for the views still holding it.
func TestDedupSharedSlotFreezesUnderLease(t *testing.T) { checkHeldPageKeepsItsBytes(t, "evict") }
