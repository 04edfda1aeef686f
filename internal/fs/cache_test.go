package fs

import (
	"bytes"
	"testing"

	"repro/internal/abi"
)

// countingBackend wraps a Backend and counts the calls that reach it, so
// tests can prove cache hits never touch storage.
type countingBackend struct {
	Backend
	lstats, opens, readdirs int
}

func (c *countingBackend) Lstat(p string, cb func(abi.Stat, abi.Errno)) {
	c.lstats++
	c.Backend.Lstat(p, cb)
}

func (c *countingBackend) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	c.opens++
	c.Backend.Open(p, flags, mode, cb)
}

func (c *countingBackend) Readdir(p string, cb func([]abi.Dirent, abi.Errno)) {
	c.readdirs++
	c.Backend.Readdir(p, cb)
}

// ReadOnly marks the wrapped backend cacheable regardless of the inner
// type (the tests wrap read-only images).
func (c *countingBackend) ReadOnly() bool { return true }

// newCountedFS stages /mnt/a/b/file.txt on a counted read-only backend
// mounted at /mnt.
func newCountedFS(t *testing.T, content string) (*FileSystem, *countingBackend) {
	t.Helper()
	img := NewMemFS(now)
	lfs := NewFileSystem(img, func() int64 { return clock })
	mustMkdirAll(t, lfs, "/a/b")
	mustWrite(t, lfs, "/a/b/file.txt", content)
	img.SetReadOnly()
	counted := &countingBackend{Backend: img}
	f := newFS()
	mustMkdirAll(t, f, "/mnt")
	f.Mount("/mnt", counted)
	return f, counted
}

func TestDentryCacheShortCircuitsBackend(t *testing.T) {
	f, counted := newCountedFS(t, "cached")
	stat := func() {
		var err abi.Errno = -1
		f.Stat("/mnt/a/b/file.txt", func(_ abi.Stat, e abi.Errno) { err = e })
		if err != abi.OK {
			t.Fatalf("stat: %v", err)
		}
	}
	stat()
	cold := counted.lstats
	if cold == 0 {
		t.Fatal("cold stat never reached the backend")
	}
	stat()
	stat()
	if counted.lstats != cold {
		t.Fatalf("warm stats reached the backend: %d -> %d lstats", cold, counted.lstats)
	}
	s := f.CacheStats()
	if s.WalkHits == 0 {
		t.Fatalf("no whole-walk hits recorded: %+v", s)
	}
}

func TestNegativeDentriesAndInvalidation(t *testing.T) {
	f := newFS()
	mustMkdirAll(t, f, "/d")
	var err abi.Errno
	// Two misses on the same path: the second is a negative-cache hit.
	f.Stat("/d/ghost", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatalf("stat ghost: %v", err)
	}
	f.Stat("/d/ghost", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatalf("stat ghost again: %v", err)
	}
	if f.CacheStats().NegativeHits == 0 {
		t.Fatal("negative entry not served from cache")
	}
	// Creating the file must kill the negative entry...
	mustWrite(t, f, "/d/ghost", "now real")
	f.Stat("/d/ghost", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("stat after create: %v", err)
	}
	// ...and removal must kill the positive one.
	f.Unlink("/d/ghost", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("unlink: %v", err)
	}
	f.Stat("/d/ghost", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatalf("stat after unlink: %v", err)
	}
}

func TestRenameInvalidatesSubtree(t *testing.T) {
	f := newFS()
	mustMkdirAll(t, f, "/d1/sub")
	mustWrite(t, f, "/d1/sub/f", "moved")
	// Warm the caches on the old names.
	_ = mustRead(t, f, "/d1/sub/f")
	var err abi.Errno
	f.Rename("/d1", "/d2", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("rename: %v", err)
	}
	if got := mustRead(t, f, "/d2/sub/f"); got != "moved" {
		t.Fatalf("read after dir rename: %q", got)
	}
	f.Stat("/d1/sub/f", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatalf("old subtree still visible after rename: %v", err)
	}
}

func TestAttrCacheInvalidatedByHandleWrites(t *testing.T) {
	f := newFS()
	mustWrite(t, f, "/grow", "123")
	var st abi.Stat
	f.Stat("/grow", func(s abi.Stat, e abi.Errno) { st = s })
	if st.Size != 3 {
		t.Fatalf("size = %d", st.Size)
	}
	// Append through a handle; the cached attributes must not go stale.
	f.Open("/grow", abi.O_WRONLY, 0, func(h FileHandle, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("open: %v", e)
		}
		h.Pwrite(3, []byte("4567"), func(int, abi.Errno) {})
		h.Close(func(abi.Errno) {})
	})
	f.Stat("/grow", func(s abi.Stat, e abi.Errno) { st = s })
	if st.Size != 7 {
		t.Fatalf("stat after handle write: size = %d, want 7", st.Size)
	}
	// Truncate through a handle likewise.
	f.Open("/grow", abi.O_RDWR, 0, func(h FileHandle, e abi.Errno) {
		h.Truncate(2, func(abi.Errno) {})
		h.Close(func(abi.Errno) {})
	})
	f.Stat("/grow", func(s abi.Stat, e abi.Errno) { st = s })
	if st.Size != 2 {
		t.Fatalf("stat after truncate: size = %d, want 2", st.Size)
	}
}

func TestPageCacheServesRepeatedReadsWithoutBackend(t *testing.T) {
	content := string(bytes.Repeat([]byte("browsix "), 8<<10)) // 64 KiB
	f, counted := newCountedFS(t, content)
	read := func() string { return mustRead(t, f, "/mnt/a/b/file.txt") }
	if got := read(); got != content {
		t.Fatalf("first read wrong (%d bytes)", len(got))
	}
	opens, lstats := counted.opens, counted.lstats
	if opens == 0 {
		t.Fatal("cold read never opened on the backend")
	}
	for i := 0; i < 3; i++ {
		if got := read(); got != content {
			t.Fatalf("warm read %d wrong", i)
		}
	}
	if counted.opens != opens || counted.lstats != lstats {
		t.Fatalf("warm reads re-hit the backend: opens %d->%d, lstats %d->%d",
			opens, counted.opens, lstats, counted.lstats)
	}
	s := f.CacheStats()
	if s.PageHits == 0 || s.PageMisses == 0 {
		t.Fatalf("page counters: %+v", s)
	}
}

func TestPageCacheReadahead(t *testing.T) {
	content := string(bytes.Repeat([]byte{0xAB}, 10*PageSize))
	f, _ := newCountedFS(t, content)
	f.SetReadahead(2)
	var h FileHandle
	f.Open("/mnt/a/b/file.txt", abi.O_RDONLY, 0, func(fh FileHandle, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("open: %v", e)
		}
		h = fh
	})
	// Sequential 1 KiB reads: readahead should run ahead of the cursor,
	// converting most reads into page hits.
	var out []byte
	for off := int64(0); off < int64(len(content)); {
		var chunk []byte
		h.Pread(off, 1024, func(b []byte, e abi.Errno) { chunk = b })
		if len(chunk) == 0 {
			break
		}
		out = append(out, chunk...)
		off += int64(len(chunk))
	}
	h.Close(func(abi.Errno) {})
	if string(out) != content {
		t.Fatalf("sequential read through readahead corrupted data (%d bytes)", len(out))
	}
	s := f.CacheStats()
	if s.ReadaheadOps == 0 {
		t.Fatalf("no readahead issued: %+v", s)
	}
	if s.PageHits < s.PageMisses {
		t.Fatalf("readahead ineffective: %+v", s)
	}
}

func TestPageCacheInvalidatedByWrite(t *testing.T) {
	// Overlay is page-cacheable; writes must drop stale pages.
	lower := NewMemFS(now)
	lfs := NewFileSystem(lower, func() int64 { return clock })
	mustWrite(t, lfs, "/doc", "version one")
	lower.SetReadOnly()
	ov := NewOverlayFS(NewMemFS(now), lower)
	f := NewFileSystem(ov, func() int64 { return clock })
	if got := mustRead(t, f, "/doc"); got != "version one" {
		t.Fatalf("read lower: %q", got)
	}
	mustWrite(t, f, "/doc", "version two")
	if got := mustRead(t, f, "/doc"); got != "version two" {
		t.Fatalf("stale page served after write: %q", got)
	}
	// And partial writes through a handle as well.
	f.Open("/doc", abi.O_WRONLY, 0, func(h FileHandle, e abi.Errno) {
		h.Pwrite(0, []byte("VERSION"), func(int, abi.Errno) {})
		h.Close(func(abi.Errno) {})
	})
	if got := mustRead(t, f, "/doc"); got != "VERSION two" {
		t.Fatalf("stale page after handle write: %q", got)
	}
}

func TestPagedHandleSeesGrowthAfterOpen(t *testing.T) {
	// An O_RDONLY handle on an upper-layer overlay file must observe
	// appends made through another descriptor to the same file: after
	// the invalidation bumps the path's generation, the stale handle
	// bypasses the page cache and reads its backend handle directly —
	// EOF comes from the backend, not the open-time size snapshot.
	f := NewFileSystem(NewOverlayFS(NewMemFS(now), NewMemFS(now)), func() int64 { return clock })
	mustWrite(t, f, "/log", "first")
	var h FileHandle
	f.Open("/log", abi.O_RDONLY, 0, func(fh FileHandle, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("open: %v", e)
		}
		h = fh
	})
	var data []byte
	h.Pread(0, 100, func(b []byte, e abi.Errno) { data = b })
	if string(data) != "first" {
		t.Fatalf("initial read: %q", data)
	}
	f.Open("/log", abi.O_RDWR, 0, func(wh FileHandle, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("open rw: %v", e)
		}
		wh.Pwrite(5, []byte(" second"), func(int, abi.Errno) {})
		wh.Close(func(abi.Errno) {})
	})
	h.Pread(0, 100, func(b []byte, e abi.Errno) { data = b })
	if string(data) != "first second" {
		t.Fatalf("read after growth: %q, want %q", data, "first second")
	}
	h.Pread(5, 100, func(b []byte, e abi.Errno) { data = b })
	if string(data) != " second" {
		t.Fatalf("offset read after growth: %q", data)
	}
	h.Close(func(abi.Errno) {})
}

func TestPagedHandleCopyUpAliasingDoesNotPolluteCache(t *testing.T) {
	// A descriptor opened before a copy-up stays bound to the *lower*
	// file (Linux overlayfs's documented fd behaviour). Its reads must
	// not plant pages for the path, which now names the upper file.
	lower := NewMemFS(now)
	lfs := NewFileSystem(lower, func() int64 { return clock })
	mustWrite(t, lfs, "/doc", "old lower content")
	lower.SetReadOnly()
	f := NewFileSystem(NewOverlayFS(NewMemFS(now), lower), func() int64 { return clock })

	var h1 FileHandle
	f.Open("/doc", abi.O_RDONLY, 0, func(fh FileHandle, e abi.Errno) { h1 = fh })
	var data []byte
	h1.Pread(0, 100, func(b []byte, e abi.Errno) { data = b })
	if string(data) != "old lower content" {
		t.Fatalf("pre-copy-up read: %q", data)
	}
	// Copy-up via an overwrite.
	mustWrite(t, f, "/doc", "NEW upper content!!")
	// The stale fd keeps the lower file...
	h1.Pread(0, 100, func(b []byte, e abi.Errno) { data = b })
	if string(data) != "old lower content" {
		t.Fatalf("stale fd after copy-up: %q", data)
	}
	// ...and fresh opens see the upper file, uncontaminated by the
	// stale fd's re-reads.
	if got := mustRead(t, f, "/doc"); got != "NEW upper content!!" {
		t.Fatalf("fresh read after copy-up: %q", got)
	}
	h1.Pread(0, 100, func([]byte, abi.Errno) {}) // stale fd reads again
	if got := mustRead(t, f, "/doc"); got != "NEW upper content!!" {
		t.Fatalf("stale fd polluted the page cache: %q", got)
	}
	h1.Close(func(abi.Errno) {})
}

func TestOpenHandleSurvivesUnlinkOnOverlay(t *testing.T) {
	// POSIX: an open descriptor keeps working after the name is
	// unlinked. The overlay is mutable, so the paged handle opens its
	// backend handle eagerly.
	lower := NewMemFS(now)
	lfs := NewFileSystem(lower, func() int64 { return clock })
	mustWrite(t, lfs, "/doomed", "still readable")
	lower.SetReadOnly()
	f := NewFileSystem(NewOverlayFS(NewMemFS(now), lower), func() int64 { return clock })

	var h FileHandle
	f.Open("/doomed", abi.O_RDONLY, 0, func(fh FileHandle, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("open: %v", e)
		}
		h = fh
	})
	var err abi.Errno
	f.Unlink("/doomed", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("unlink: %v", err)
	}
	f.Stat("/doomed", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatal("unlink did not hide the name")
	}
	var data []byte
	var rerr abi.Errno = -1
	h.Pread(0, 100, func(b []byte, e abi.Errno) { data, rerr = b, e })
	if rerr != abi.OK || string(data) != "still readable" {
		t.Fatalf("read after unlink: %q, %v", data, rerr)
	}
	h.Close(func(abi.Errno) {})
}

func TestStaleHandleCannotPolluteAcrossMount(t *testing.T) {
	// A read-only handle opened before a Mount shadowed its path must
	// not repopulate the page cache with the old backend's bytes.
	old := NewMemFS(now)
	olfs := NewFileSystem(old, func() int64 { return clock })
	mustMkdirAll(t, olfs, "/data")
	mustWrite(t, olfs, "/data/f", "OLD-CONTENT")
	old.SetReadOnly()
	f := newFS()
	mustMkdirAll(t, f, "/mnt")
	f.Mount("/mnt", old)

	var h FileHandle
	f.Open("/mnt/data/f", abi.O_RDONLY, 0, func(fh FileHandle, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("open: %v", e)
		}
		h = fh
	})
	var data []byte
	h.Pread(0, 100, func(b []byte, e abi.Errno) { data = b })
	if string(data) != "OLD-CONTENT" {
		t.Fatalf("pre-mount read: %q", data)
	}
	// Shadow the file's directory with a longer-prefix mount.
	nb := NewMemFS(now)
	nfs := NewFileSystem(nb, func() int64 { return clock })
	mustWrite(t, nfs, "/f", "NEW-CONTENT")
	nb.SetReadOnly()
	f.Mount("/mnt/data", nb)
	// The stale handle still reads its own (old) file...
	h.Pread(0, 100, func(b []byte, e abi.Errno) { data = b })
	if string(data) != "OLD-CONTENT" {
		t.Fatalf("stale fd after mount: %q", data)
	}
	// ...but the path serves the new backend, before and after the
	// stale fd's re-reads.
	if got := mustRead(t, f, "/mnt/data/f"); got != "NEW-CONTENT" {
		t.Fatalf("read after mount: %q", got)
	}
	h.Pread(0, 100, func([]byte, abi.Errno) {})
	if got := mustRead(t, f, "/mnt/data/f"); got != "NEW-CONTENT" {
		t.Fatalf("stale fd polluted cache across mount: %q", got)
	}
	h.Close(func(abi.Errno) {})
}

func TestWalkCacheSurvivesUnrelatedWrites(t *testing.T) {
	// Writes to one file must not evict whole-walk entries for others
	// (the pdflatex log/aux chatter pattern).
	f := newFS()
	mustMkdirAll(t, f, "/proj")
	mustWrite(t, f, "/proj/main.tex", "doc")
	mustWrite(t, f, "/proj/main.log", "")
	stat := func() {
		var err abi.Errno = -1
		f.Stat("/proj/main.tex", func(_ abi.Stat, e abi.Errno) { err = e })
		if err != abi.OK {
			t.Fatalf("stat: %v", err)
		}
	}
	stat()
	stat() // prime + confirm walk entry
	base := f.CacheStats().WalkHits
	var h FileHandle
	f.Open("/proj/main.log", abi.O_WRONLY, 0, func(fh FileHandle, e abi.Errno) { h = fh })
	for i := 0; i < 10; i++ {
		h.Pwrite(int64(i), []byte("x"), func(int, abi.Errno) {})
		stat()
	}
	h.Close(func(abi.Errno) {})
	if hits := f.CacheStats().WalkHits - base; hits < 10 {
		t.Fatalf("only %d/10 warm stats hit the walk cache across writes", hits)
	}
}

func TestCachingOffMatchesOn(t *testing.T) {
	// The same operation script on cache-on and cache-off instances must
	// produce identical observable results.
	script := func(f *FileSystem) []string {
		var log []string
		record := func(ctx string, err abi.Errno) { log = append(log, ctx+":"+err.String()) }
		mustMkdirAll(t, f, "/w/d")
		mustWrite(t, f, "/w/d/a", "alpha")
		var err abi.Errno
		f.Symlink("a", "/w/d/l", func(e abi.Errno) { err = e })
		record("symlink", err)
		log = append(log, "read:"+mustRead(t, f, "/w/d/l"))
		f.Stat("/w/d/ghost", func(_ abi.Stat, e abi.Errno) { err = e })
		record("ghost", err)
		f.Rename("/w/d", "/w/e", func(e abi.Errno) { err = e })
		record("rename", err)
		log = append(log, "read2:"+mustRead(t, f, "/w/e/a"))
		f.Stat("/w/d/a", func(_ abi.Stat, e abi.Errno) { err = e })
		record("gone", err)
		f.Unlink("/w/e/l", func(e abi.Errno) { err = e })
		record("unlink", err)
		var names []string
		f.Readdir("/w/e", func(ents []abi.Dirent, e abi.Errno) {
			for _, d := range ents {
				names = append(names, d.Name)
			}
		})
		log = append(log, "ls:"+joinNames(names))
		return log
	}
	on := newFS()
	off := newFS()
	off.SetFeatures(Features{NoCaches: true})
	a, b := script(on), script(off)
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cache-on %q != cache-off %q", a[i], b[i])
		}
	}
}

func joinNames(names []string) string {
	out := ""
	for _, n := range names {
		out += n + ","
	}
	return out
}

func TestVectoredHandleRoundTrip(t *testing.T) {
	f := newFS()
	var h FileHandle
	f.Open("/v", abi.O_RDWR|abi.O_CREAT, 0o644, func(fh FileHandle, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("open: %v", e)
		}
		h = fh
	})
	// Pwritev lands the segments back to back without coalescing.
	var n int
	h.Pwritev(0, [][]byte{[]byte("abc"), []byte("defg"), []byte("hi")}, func(m int, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("pwritev: %v", e)
		}
		n = m
	})
	if n != 9 {
		t.Fatalf("pwritev wrote %d, want 9", n)
	}
	if got := mustRead(t, f, "/v"); got != "abcdefghi" {
		t.Fatalf("content after pwritev: %q", got)
	}
	// Preadv gathers; segment shapes are backend-chosen but the bytes
	// must concatenate to the requested range.
	var segs [][]byte
	h.Preadv(2, []int{3, 10}, func(s [][]byte, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("preadv: %v", e)
		}
		segs = s
	})
	var all []byte
	for _, s := range segs {
		all = append(all, s...)
	}
	if string(all) != "cdefghi" {
		t.Fatalf("preadv gathered %q", all)
	}
	// Vectored overwrite at an offset.
	h.Pwritev(3, [][]byte{[]byte("XY")}, func(int, abi.Errno) {})
	if got := mustRead(t, f, "/v"); got != "abcXYfghi" {
		t.Fatalf("content after offset pwritev: %q", got)
	}
	h.Close(func(abi.Errno) {})
}

func TestQuotaEnforcedOnPwritev(t *testing.T) {
	l := NewLocalStorageFS(now, 10)
	f := NewFileSystem(l, func() int64 { return clock })
	var h FileHandle
	f.Open("/q", abi.O_WRONLY|abi.O_CREAT, 0o644, func(fh FileHandle, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("open: %v", e)
		}
		h = fh
	})
	var err abi.Errno
	h.Pwritev(0, [][]byte{[]byte("12345"), []byte("67890"), []byte("!")}, func(_ int, e abi.Errno) { err = e })
	if err != abi.ENOSPC {
		t.Fatalf("over-quota pwritev = %v, want ENOSPC", err)
	}
	h.Pwritev(0, [][]byte{[]byte("12345"), []byte("67890")}, func(_ int, e abi.Errno) { err = e })
	if err != abi.OK || l.Used() != 10 {
		t.Fatalf("at-quota pwritev = %v, used %d", err, l.Used())
	}
	h.Close(func(abi.Errno) {})
}
