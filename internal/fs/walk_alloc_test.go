package fs

import (
	"strings"
	"testing"

	"repro/internal/abi"
)

// Allocation guards for the in-place walker: a walk scans its path by
// index, so a warm walk's allocations do not grow with the path's depth.

// warmStatAllocs stats p once to warm the caches, then returns the
// objects one more Stat of p allocates.
func warmStatAllocs(t *testing.T, f *FileSystem, p string) float64 {
	t.Helper()
	var err abi.Errno = -1
	cb := func(_ abi.Stat, e abi.Errno) { err = e }
	f.Stat(p, cb)
	if err != abi.OK {
		t.Fatalf("stat %s: %v", p, err)
	}
	return testing.AllocsPerRun(100, func() { f.Stat(p, cb) })
}

// deepTree makes /a/b/.../ of depth dirs and a file at the bottom, and
// returns the file's canonical path and a spelling of it with "..".
func deepTree(t *testing.T, f *FileSystem, depth int) (canon, dotdot string) {
	t.Helper()
	names := make([]string, depth)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	dir := "/" + strings.Join(names, "/")
	mustMkdirAll(t, f, dir)
	mustWrite(t, f, dir+"/f", "x")
	// /a/b/c/../c/d/...: the ".." sits after the third component.
	dotdot = "/" + strings.Join(names[:3], "/") + "/../" + strings.Join(names[2:], "/") + "/f"
	return dir + "/f", dotdot
}

// TestDotDotWalkAllocsFlat: a warm walk of a ".."-containing path (never
// whole-walk cached, so every component is a dentry lookup) allocates
// the same number of objects at depth 3 and at depth 8. After the ".."
// the walker builds each component's path in its buffer, and it makes
// a string only for the result. The walker record and its buffer are
// recycled, so the two objects are Stat's completion closure and the
// result's path.
func TestDotDotWalkAllocsFlat(t *testing.T) {
	const limit = 2
	var got [2]float64
	for k, depth := range []int{3, 8} {
		f := newFS()
		_, dotdot := deepTree(t, f, depth)
		got[k] = warmStatAllocs(t, f, dotdot)
	}
	t.Logf("warm stat through \"..\": %v objects at depth 3, %v at depth 8", got[0], got[1])
	if got[0] != got[1] {
		t.Errorf("warm stat through \"..\" allocates %v objects at depth 3 but %v at depth 8", got[0], got[1])
	}
	if got[1] > limit {
		t.Errorf("warm stat through \"..\" allocates %v objects, want at most %d", got[1], limit)
	}
}

// TestWarmDeepStatAllocs: a warm whole-walk stat of a deep path is one
// radix descent; the only object is Stat's own completion closure.
func TestWarmDeepStatAllocs(t *testing.T) {
	f := newFS()
	canon, _ := deepTree(t, f, 12)
	if n := warmStatAllocs(t, f, canon); n > 1 {
		t.Errorf("warm stat of %s allocates %v objects, want at most 1", canon, n)
	}
}

// TestColdMkdirAllStatAllocs bounds a cold MkdirAll plus Stat of a
// 5-deep path on a fresh memfs: five Mkdir walks that each miss on
// their final component, the memfs nodes and the dentries they create,
// the whole-walk tier's radix nodes, then a stat walk over warm
// dentries. The in-place walker measured 84 objects here beyond a fresh
// FileSystem (the split-and-join walker it replaced, 232). The bound of
// 100 leaves about 20% for a Go release's map growth policy, and none
// for a string or closure per component.
func TestColdMkdirAllStatAllocs(t *testing.T) {
	const limit = 100
	const p = "/u/v/w/x/y"
	n := testing.AllocsPerRun(20, func() {
		f := newFS()
		var err abi.Errno = -1
		f.MkdirAll(p, 0o755, func(e abi.Errno) { err = e })
		if err != abi.OK {
			t.Fatalf("MkdirAll: %v", err)
		}
		f.Stat(p, func(_ abi.Stat, e abi.Errno) { err = e })
		if err != abi.OK {
			t.Fatalf("stat: %v", err)
		}
	})
	// newFS itself (file system, memfs root, caches) is part of the
	// figure; measure it alone so the bound covers only the walks.
	base := testing.AllocsPerRun(20, func() { _ = newFS() })
	if n-base > limit {
		t.Errorf("cold MkdirAll+stat of %s allocates %v objects beyond a fresh FileSystem's %v, want at most %d", p, n-base, base, limit)
	}
	t.Logf("cold MkdirAll+stat: %v objects (fresh FileSystem %v)", n-base, base)
}
