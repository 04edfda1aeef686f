package snapshot

import (
	"testing"

	"repro/internal/fs"
)

// pooledImage captures a heap of n distinct pages (so no two share a
// deduped arena slot) into a fresh arena.
func pooledImage(t *testing.T, path string, n int) (*Image, *fs.PagePool) {
	t.Helper()
	pool := fs.NewPagePool(64)
	heap := make([]byte, n*PageSize)
	for i := range heap {
		heap[i] = byte(i/PageSize + 1)
	}
	img := NewImage(path)
	img.SetHeap(pool.ImageStore(0), heap)
	if !img.Pooled() || img.NumPages() != n {
		t.Fatalf("pooled=%v pages=%d, want an arena-backed %d-page image", img.Pooled(), img.NumPages(), n)
	}
	return img, pool
}

// pins returns every page's pin count.
func pins(img *Image) []int {
	out := make([]int, img.NumPages())
	for p := range out {
		out[p] = img.PinCount(p)
	}
	return out
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

// TestCowFaultUnpinsOnce: the first write to a shared page returns its
// clone pin and charges CowFaultNs once; later writes to it cost nothing.
// MarkPrivate privatizes without a charge.
func TestCowFaultUnpinsOnce(t *testing.T) {
	img, _ := pooledImage(t, "/usr/bin/a", 3)
	img.PinAll()
	tr := NewTracker(img, img.NumPages())
	var charged int64
	tr.SetFaultCharge(func(ns int64) { charged += ns }, CowFaultNs)
	var st Stats
	tr.SetStats(&st)

	tr.MarkDirty(PageSize+10, 4)
	if got := pins(img); got[0] != 2 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("pins after one fault %v, want [2 1 2]", got)
	}
	if charged != CowFaultNs || st.CowFaults.Load() != 1 || tr.SharedPages() != 2 {
		t.Fatalf("charged %d, faults %d, shared %d; want %d, 1, 2", charged, st.CowFaults.Load(), tr.SharedPages(), CowFaultNs)
	}
	tr.MarkDirty(PageSize+100, 8)
	if got := pins(img); got[1] != 1 || charged != CowFaultNs || st.CowFaults.Load() != 1 {
		t.Fatalf("second write to the page: pins %v, charged %d, faults %d", got, charged, st.CowFaults.Load())
	}
	tr.MarkPrivate(2)
	if got := pins(img); got[2] != 1 || charged != CowFaultNs || tr.SharedPages() != 1 {
		t.Fatalf("MarkPrivate: pins %v, charged %d, shared %d", got, charged, tr.SharedPages())
	}
}

// TestReleaseSharedReturnsEveryPin: a clone exiting returns the pin of
// every page it never wrote, exactly once.
func TestReleaseSharedReturnsEveryPin(t *testing.T) {
	img, _ := pooledImage(t, "/usr/bin/a", 4)
	img.PinAll()
	tr := NewTracker(img, img.NumPages())
	tr.MarkDirty(0, 1)
	tr.ReleaseShared()
	tr.ReleaseShared() // idempotent
	for p, n := range pins(img) {
		if n != 1 {
			t.Fatalf("page %d holds %d pins after ReleaseShared, want the base pin only", p, n)
		}
	}
	if tr.SharedPages() != 0 {
		t.Fatalf("%d pages still shared", tr.SharedPages())
	}
}

// TestVerifyBalancedAfterRelease: VerifyBalanced flags a clone's
// outstanding pins, passes once they return, and passes after Release
// with the whole arena returned.
func TestVerifyBalancedAfterRelease(t *testing.T) {
	img, pool := pooledImage(t, "/usr/bin/a", 3)
	r := NewRegistry()
	if !r.Register(img) {
		t.Fatal("register refused")
	}
	img.PinAll()
	tr := NewTracker(img, img.NumPages())
	if r.VerifyBalanced() == nil {
		t.Fatal("VerifyBalanced passed with a live clone's pins outstanding")
	}
	tr.ReleaseShared()
	if err := r.VerifyBalanced(); err != nil {
		t.Fatalf("after ReleaseShared: %v", err)
	}
	r.Release()
	if err := r.VerifyBalanced(); err != nil {
		t.Fatalf("after Release: %v", err)
	}
	if len(r.Paths()) != 0 || pool.PinnedSlots() != 0 {
		t.Fatalf("after Release: paths %v, %d arena slots pinned", r.Paths(), pool.PinnedSlots())
	}
}
