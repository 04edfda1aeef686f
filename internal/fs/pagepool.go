package fs

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// The page pool is the accounting every cached page and every snapshot
// image page is charged to. A page itself is an immutable []byte on the
// Go heap: a store fills a fresh page and never rewrites one, so a page
// keeps its bytes for as long as any cache entry, dedup entry or image
// holds it, and the garbage collector frees it after the last.
//
// The pool keeps two things. Each attachment (one page cache, or one
// image store) has a logical page quota: the private pages it holds
// plus the shared pages it references. A tenant's eviction order, and
// with it its virtual clock, therefore depends only on its own pages,
// whether dedup shares their bytes or not. The content-addressed dedup
// index maps a page's hash to one shared page and counts its
// references, so a file page and an image page with identical bytes,
// faulted by any tenant, are one page.
//
// Concurrency. A pool may be shared by several FileSystems, each living
// in its own deterministic Instance running on its own host thread (the
// fleet scheduler). The quotas and the index sit behind one mutex; the
// pages they hand out are never written after publication.

// DefaultPoolSlots is the default per-attachment page quota:
// maxPageCacheBytes of PageSize pages, the budget of a private
// FileSystem's cache. A fleet shard given this quota hits quota
// exhaustion at exactly the same point a private-pool instance would,
// so its virtual clock is bit-identical to a serial run.
const DefaultPoolSlots = maxPageCacheBytes / PageSize

// Dedup lookup outcomes.
const (
	dedupHit     = iota // content already resident; reference taken
	dedupMiss           // no entry: caller fills a fresh page and publishes
	dedupNoQuota        // entry exists but the attachment is at quota
)

// dedupEntry is one content-addressed shared page: the index key it is
// published under, its bytes, and the number of outstanding references
// (page-cache pages and image-store pages across every attachment).
// refs is guarded by the pool mutex.
type dedupEntry struct {
	hash [32]byte
	page []byte
	refs int
}

// pagePool is the per-attachment quota ledger plus the dedup index.
type pagePool struct {
	// mu guards the per-attachment accounting and the dedup index.
	// used/quota/sharedRefs are indexed by attachment id. sharedRefs is
	// the LOGICAL side of dedup accounting: each content-addressed page
	// an attachment references counts against its quota exactly as if
	// it held a private page.
	mu         sync.Mutex
	used       []int
	quota      []int
	sharedRefs []int

	dedupIdx map[[32]byte]*dedupEntry

	// Dedup observability, all atomic so the host can poll while shards
	// run: resident entries, outstanding references, lookup hits.
	dedupEntries atomic.Int64
	dedupRefsN   atomic.Int64
	dedupHitsN   atomic.Int64
}

func newPagePool() *pagePool {
	return &pagePool{dedupIdx: map[[32]byte]*dedupEntry{}}
}

// attach registers one cache or image store as a pool client with a
// page quota and returns its attachment id. quota <= 0 means
// DefaultPoolSlots.
func (pp *pagePool) attach(quota int) int {
	if quota <= 0 {
		quota = DefaultPoolSlots
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pp.used = append(pp.used, 0)
	pp.quota = append(pp.quota, quota)
	pp.sharedRefs = append(pp.sharedRefs, 0)
	return len(pp.used) - 1
}

// quotaFreeLocked reports whether att has headroom for one more page.
func (pp *pagePool) quotaFreeLocked(att int) bool {
	return pp.used[att]+pp.sharedRefs[att] < pp.quota[att]
}

// charge books one private page to att; false when att is at its quota
// (the caller evicts, or skips caching). Quota exhaustion depends only
// on att's own pages, so a shard's cache behaviour is independent of
// its neighbours.
func (pp *pagePool) charge(att int) bool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if !pp.quotaFreeLocked(att) {
		return false
	}
	pp.used[att]++
	return true
}

// uncharge returns one private page's charge.
func (pp *pagePool) uncharge(att int) {
	pp.mu.Lock()
	pp.used[att]--
	pp.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Content-addressed dedup tier.
// ---------------------------------------------------------------------------
//
// The flow a caller drives (pageCache.storeDedup, ImageStore.Put):
//
//	dedupLookup(att, h)        -> hit: reference taken, done.
//	dedupPublish(att, h, page) -> index a freshly filled page (filled
//	                              outside the mutex); if a concurrent
//	                              filler won the race, its page gains
//	                              the reference and the fresh one is
//	                              garbage.
//	dedupDeref(att, e)         -> drop one reference; the last one
//	                              removes the entry from the index.
//
// Determinism: dedup happens AFTER the backend read (the caller hashes
// the bytes it just fetched), so a hit and a miss cost the same virtual
// time, and quota is charged logically per reference, so a tenant's
// eviction sequence is identical with dedup on, off, or racing other
// tenants. The win is memory, never the clock.

// refLocked charges one reference on e to att.
func (pp *pagePool) refLocked(att int, e *dedupEntry) {
	e.refs++
	pp.sharedRefs[att]++
	pp.dedupRefsN.Add(1)
}

// dedupLookup takes a reference on the published page for hash h, if
// any. dedupHit: e is the entry, its reference charged to att.
// dedupNoQuota: the content is resident but att is at quota (evict and
// retry, or skip). dedupMiss: not resident — fill and publish.
func (pp *pagePool) dedupLookup(att int, h [32]byte) (*dedupEntry, int) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	e, ok := pp.dedupIdx[h]
	if !ok {
		return nil, dedupMiss
	}
	if !pp.quotaFreeLocked(att) {
		return nil, dedupNoQuota
	}
	pp.refLocked(att, e)
	pp.dedupHitsN.Add(1)
	return e, dedupHit
}

// dedupPublish indexes page, freshly filled with the content whose hash
// is h, and returns the canonical entry for that content with one
// reference charged to att; nil when att is at quota. If a concurrent
// filler published the same hash first, its entry gains the reference.
func (pp *pagePool) dedupPublish(att int, h [32]byte, page []byte) *dedupEntry {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if !pp.quotaFreeLocked(att) {
		return nil
	}
	e, ok := pp.dedupIdx[h]
	if !ok {
		e = &dedupEntry{hash: h, page: page}
		pp.dedupIdx[h] = e
		pp.dedupEntries.Add(1)
	}
	pp.refLocked(att, e)
	return e
}

// dedupDeref drops att's reference on e. The last reference removes the
// entry from the index; holders of its page keep their bytes.
func (pp *pagePool) dedupDeref(att int, e *dedupEntry) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	e.refs--
	pp.sharedRefs[att]--
	pp.dedupRefsN.Add(-1)
	if e.refs == 0 {
		delete(pp.dedupIdx, e.hash)
		pp.dedupEntries.Add(-1)
	}
}

// poolPage is one cached page: its content bytes (a short page — fewer
// than PageSize — marks EOF) and, when it is shared through the dedup
// index, its entry, whose reference dropping the page returns.
type poolPage struct {
	data   []byte
	shared *dedupEntry
}

// ---------------------------------------------------------------------------
// Shared pools (the fleet's one cross-shard structure).
// ---------------------------------------------------------------------------

// PagePool is a standalone page pool several FileSystems — each owned
// by an independent deterministic Instance, possibly running on its own
// host thread — can share, so that their immutable pages dedup into one
// copy. Per-attachment quotas keep each shard's cache behaviour (and
// therefore its virtual clock) independent of its neighbours.
type PagePool struct {
	pp *pagePool
}

// NewPagePool creates a shared page pool.
func NewPagePool() *PagePool {
	return &PagePool{pp: newPagePool()}
}

// DedupStats reports the content-addressed sharing tier: distinct shared
// pages resident, outstanding references to them, and index hits since
// boot. All atomic — readable from the host while shards run. The dedup
// factor of a resident fleet is refs/entries.
func (p *PagePool) DedupStats() (entries, refs, hits int64) {
	return p.pp.dedupEntries.Load(), p.pp.dedupRefsN.Load(), p.pp.dedupHitsN.Load()
}

// Attachments reports how many quota accounts (page caches and image
// stores) the pool holds; none is ever detached.
func (p *PagePool) Attachments() int {
	p.pp.mu.Lock()
	defer p.pp.mu.Unlock()
	return len(p.pp.used)
}

// SetPagePool attaches this FileSystem's page cache to a shared pool
// with a per-cache page quota (quotaSlots <= 0 means DefaultPoolSlots).
// It must be called at setup time, before any page is cached; attached
// state does not migrate.
func (f *FileSystem) SetPagePool(p *PagePool, quotaSlots int) {
	f.pc.evictAll()
	f.pc.pool = p.pp
	f.pc.att = p.pp.attach(quotaSlots)
}

// WriteStagedSlots is always zero: writes never lease pool pages. It
// stays because the benchmark's ledger check reads it.
func (f *FileSystem) WriteStagedSlots() int { return 0 }

// ---------------------------------------------------------------------------
// Image store: immutable snapshot pages shared by reference.
// ---------------------------------------------------------------------------

// ImageStore charges snapshot-image pages to their own pool attachment
// and routes them through the content-addressed dedup tier: identical
// pages within an image (a zeroed heap is mostly one page), across
// images, and between images and the page cache (a sealed image's page
// matching a full page of some immutable file) are one page. The pages
// it hands out are immutable; the image holds them by reference.
type ImageStore struct {
	pp  *pagePool
	att int
}

// ImageStore creates a snapshot-page attachment on a shared pool.
// quotaSlots <= 0 means DefaultPoolSlots.
func (p *PagePool) ImageStore(quotaSlots int) *ImageStore {
	return &ImageStore{pp: p.pp, att: p.pp.attach(quotaSlots)}
}

// ImageStore creates a snapshot-page attachment on this FileSystem's own
// pool (private or shared) — how a single Instance with snapshots enabled
// stores images without constructing a standalone PagePool.
func (f *FileSystem) ImageStore(quotaSlots int) *ImageStore {
	return &ImageStore{pp: f.pc.pool, att: f.pc.pool.attach(quotaSlots)}
}

// Put stores one page of image data (len(data) <= PageSize), zero-padded
// to a full page, and returns the stored page. Pages route through the
// dedup index keyed by the padded page's hash — identical content
// resolves to the already-resident page, which gains a reference. ok is
// false at quota (the caller falls back to private host copies). The
// returned page must never be written.
func (s *ImageStore) Put(data []byte) (page []byte, ok bool) {
	if len(data) > PageSize {
		panic("fs: ImageStore.Put: page overflow")
	}
	var buf [PageSize]byte
	copy(buf[:], data)
	h := sha256.Sum256(buf[:])
	e, st := s.pp.dedupLookup(s.att, h)
	if st == dedupMiss {
		e = s.pp.dedupPublish(s.att, h, bytes.Clone(buf[:]))
	}
	if e == nil {
		return nil, false
	}
	return e.page, true
}

// Free drops the image's reference on a page Put returned. The last
// reference removes the page from the dedup index.
func (s *ImageStore) Free(page []byte) {
	h := sha256.Sum256(page)
	s.pp.mu.Lock()
	e := s.pp.dedupIdx[h]
	s.pp.mu.Unlock()
	s.pp.dedupDeref(s.att, e)
}
