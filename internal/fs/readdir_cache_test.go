package fs

import (
	"testing"

	"repro/internal/abi"
)

// readdirNames lists a directory and returns the entry names, failing the
// test on error.
func readdirNames(t *testing.T, f *FileSystem, p string) []string {
	t.Helper()
	var names []string
	var err abi.Errno = -1
	f.Readdir(p, func(ents []abi.Dirent, e abi.Errno) {
		err = e
		for _, d := range ents {
			names = append(names, d.Name)
		}
	})
	if err != abi.OK {
		t.Fatalf("readdir %s: %v", p, err)
	}
	return names
}

// TestReaddirCacheShortCircuitsBackend: repeated listings of an unchanged
// directory must not re-hit the backend (ROADMAP "readdir caching" item).
func TestReaddirCacheShortCircuitsBackend(t *testing.T) {
	f, counted := newCountedFS(t, "x")
	first := readdirNames(t, f, "/mnt/a/b")
	cold := counted.readdirs
	if cold == 0 {
		t.Fatal("cold readdir never reached the backend")
	}
	for i := 0; i < 5; i++ {
		got := readdirNames(t, f, "/mnt/a/b")
		if len(got) != len(first) || got[0] != first[0] {
			t.Fatalf("warm listing diverged: %v vs %v", got, first)
		}
	}
	if counted.readdirs != cold {
		t.Fatalf("warm readdirs reached the backend: %d -> %d", cold, counted.readdirs)
	}
	s := f.CacheStats()
	if s.ReaddirHits < 5 {
		t.Fatalf("expected >=5 readdir hits, got %+v", s)
	}
}

// TestReaddirCacheInvalidation: every class of mutation that changes a
// listing must drop the cached listing — create, unlink, rename in, and
// subtree removal.
func TestReaddirCacheInvalidation(t *testing.T) {
	f := newFS()
	mustMkdirAll(t, f, "/d")
	mustWrite(t, f, "/d/one", "1")

	if got := readdirNames(t, f, "/d"); len(got) != 1 || got[0] != "one" {
		t.Fatalf("initial listing %v", got)
	}

	// Create: the new entry must appear.
	mustWrite(t, f, "/d/two", "2")
	if got := readdirNames(t, f, "/d"); len(got) != 2 || got[1] != "two" {
		t.Fatalf("after create: %v", got)
	}

	// Unlink: the entry must disappear.
	var err abi.Errno = -1
	f.Unlink("/d/one", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("unlink: %v", err)
	}
	if got := readdirNames(t, f, "/d"); len(got) != 1 || got[0] != "two" {
		t.Fatalf("after unlink: %v", got)
	}

	// Rename into the directory from elsewhere: both listings change.
	mustMkdirAll(t, f, "/e")
	mustWrite(t, f, "/e/three", "3")
	readdirNames(t, f, "/e") // warm the source listing
	err = -1
	f.Rename("/e/three", "/d/three", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("rename: %v", err)
	}
	if got := readdirNames(t, f, "/d"); len(got) != 2 || got[0] != "three" {
		t.Fatalf("after rename, dest: %v", got)
	}
	if got := readdirNames(t, f, "/e"); len(got) != 0 {
		t.Fatalf("after rename, source: %v", got)
	}

	// Subtree removal: the parent listing updates, and the removed dir's
	// own cached listing can't resurrect it.
	mustMkdirAll(t, f, "/d/sub")
	readdirNames(t, f, "/d")
	readdirNames(t, f, "/d/sub")
	err = -1
	f.Rmdir("/d/sub", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("rmdir: %v", err)
	}
	if got := readdirNames(t, f, "/d"); len(got) != 2 {
		t.Fatalf("after rmdir: %v", got)
	}
	gotErr := abi.OK
	f.Readdir("/d/sub", func(_ []abi.Dirent, e abi.Errno) { gotErr = e })
	if gotErr != abi.ENOENT {
		t.Fatalf("removed dir still listable: %v", gotErr)
	}
}

// TestReaddirCacheOffBypasses: with caching disabled every listing goes
// to the backend (the differential cache-off configuration).
func TestReaddirCacheOffBypasses(t *testing.T) {
	f, counted := newCountedFS(t, "x")
	f.SetFeatures(Features{NoCaches: true})
	readdirNames(t, f, "/mnt/a/b")
	readdirNames(t, f, "/mnt/a/b")
	if counted.readdirs < 2 {
		t.Fatalf("cache-off listings did not reach the backend: %d", counted.readdirs)
	}
}
