package snapshot

import (
	"strings"
	"testing"

	"repro/internal/fs"
)

// pooledImage captures a heap of n distinct pages (so no two dedup into
// one page) through a fresh pool's image store.
func pooledImage(t *testing.T, path string, n int) (*Image, *fs.PagePool) {
	t.Helper()
	pool := fs.NewPagePool()
	heap := make([]byte, n*PageSize)
	for i := range heap {
		heap[i] = byte(i/PageSize + 1)
	}
	img := NewImage(path)
	img.SetHeap(pool.ImageStore(0), heap)
	if !img.Pooled() || img.NumPages() != n {
		t.Fatalf("pooled=%v pages=%d, want a store-backed %d-page image", img.Pooled(), img.NumPages(), n)
	}
	return img, pool
}

func TestRegisterRefusedAfterSeal(t *testing.T) {
	r := NewRegistry()
	if !r.Register(NewImage("/usr/bin/a")) {
		t.Fatal("first registration refused")
	}
	if r.Register(NewImage("/usr/bin/a")) {
		t.Fatal("duplicate path registered")
	}
	r.Seal()
	if !r.Sealed() {
		t.Fatal("Seal did not seal")
	}
	if r.Register(NewImage("/usr/bin/b")) {
		t.Fatal("sealed registry accepted an image")
	}
	if r.Lookup("/usr/bin/b") != nil || r.Lookup("/usr/bin/a") == nil {
		t.Fatalf("registered paths %v, want only /usr/bin/a", r.Paths())
	}
	if got := r.Stats().Captures.Load(); got != 1 {
		t.Fatalf("captures %d, want 1", got)
	}
}

// TestCowFaultUnpinsOnce: the first write to a shared page returns it to
// the image's COW ledger and charges CowFaultNs once; later writes to it
// cost nothing. MarkPrivate privatizes without a charge.
func TestCowFaultUnpinsOnce(t *testing.T) {
	img, _ := pooledImage(t, "/usr/bin/a", 3)
	img.PinAll()
	tr := NewTracker(img, img.NumPages())
	var charged int64
	tr.SetFaultCharge(func(ns int64) { charged += ns }, CowFaultNs)
	var st Stats
	tr.SetStats(&st)
	if n := img.SharedByClones(); n != 3 {
		t.Fatalf("ledger after PinAll %d, want 3", n)
	}

	tr.MarkDirty(PageSize+10, 4)
	if n := img.SharedByClones(); n != 2 {
		t.Fatalf("ledger after one fault %d, want 2", n)
	}
	if charged != CowFaultNs || st.CowFaults.Load() != 1 || tr.SharedPages() != 2 {
		t.Fatalf("charged %d, faults %d, shared %d; want %d, 1, 2", charged, st.CowFaults.Load(), tr.SharedPages(), CowFaultNs)
	}
	tr.MarkDirty(PageSize+100, 8)
	if n := img.SharedByClones(); n != 2 || charged != CowFaultNs || st.CowFaults.Load() != 1 {
		t.Fatalf("second write to the page: ledger %d, charged %d, faults %d", n, charged, st.CowFaults.Load())
	}
	tr.MarkPrivate(2)
	if n := img.SharedByClones(); n != 1 || charged != CowFaultNs || tr.SharedPages() != 1 {
		t.Fatalf("MarkPrivate: ledger %d, charged %d, shared %d", n, charged, tr.SharedPages())
	}
}

// TestReleaseSharedReturnsEveryPin: a clone exiting returns every page it
// never wrote to the image's ledger, exactly once.
func TestReleaseSharedReturnsEveryPin(t *testing.T) {
	img, _ := pooledImage(t, "/usr/bin/a", 4)
	img.PinAll()
	tr := NewTracker(img, img.NumPages())
	tr.MarkDirty(0, 1)
	tr.ReleaseShared()
	tr.ReleaseShared() // idempotent
	if n := img.SharedByClones(); n != 0 {
		t.Fatalf("ledger %d after ReleaseShared, want 0", n)
	}
	if tr.SharedPages() != 0 {
		t.Fatalf("%d pages still shared", tr.SharedPages())
	}
}

// TestVerifyBalancedAfterRelease: VerifyBalanced flags a clone's
// outstanding pages, passes once they return, and passes after Release,
// which returns every image page to the pool.
func TestVerifyBalancedAfterRelease(t *testing.T) {
	img, pool := pooledImage(t, "/usr/bin/a", 3)
	r := NewRegistry()
	if !r.Register(img) {
		t.Fatal("register refused")
	}
	img.PinAll()
	tr := NewTracker(img, img.NumPages())
	if r.VerifyBalanced() == nil {
		t.Fatal("VerifyBalanced passed with a live clone's pages outstanding")
	}
	tr.ReleaseShared()
	if err := r.VerifyBalanced(); err != nil {
		t.Fatalf("after ReleaseShared: %v", err)
	}
	r.Release()
	if err := r.VerifyBalanced(); err != nil {
		t.Fatalf("after Release: %v", err)
	}
	if entries, refs, _ := pool.DedupStats(); len(r.Paths()) != 0 || entries != 0 || refs != 0 {
		t.Fatalf("after Release: paths %v, %d pages with %d references still indexed", r.Paths(), entries, refs)
	}
}

// TestVerifyBalancedNamesLeakingImage: a clone that exits without
// calling ReleaseShared leaves its image's ledger unbalanced, and
// VerifyBalanced (which FleetStats.SnapshotLeak reports) names that
// image and no other.
func TestVerifyBalancedNamesLeakingImage(t *testing.T) {
	good, _ := pooledImage(t, "/usr/bin/good", 2)
	leaky, _ := pooledImage(t, "/usr/bin/leaky", 3)
	r := NewRegistry()
	r.Register(good)
	r.Register(leaky)

	good.PinAll()
	NewTracker(good, good.NumPages()).ReleaseShared()
	leaky.PinAll()
	NewTracker(leaky, leaky.NumPages()).MarkDirty(0, 1) // exits without ReleaseShared

	err := r.VerifyBalanced()
	if err == nil {
		t.Fatal("VerifyBalanced passed after a clone leaked its shared pages")
	}
	if msg := err.Error(); !strings.Contains(msg, "/usr/bin/leaky") || strings.Contains(msg, "/usr/bin/good") {
		t.Fatalf("error %q, want it to name /usr/bin/leaky only", msg)
	}
}
