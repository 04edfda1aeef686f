package fs

import (
	"archive/zip"
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/abi"
)

var clock int64

func now() int64 { clock++; return clock }

// sync helpers: memfs-backed operations complete inline, so tests can
// capture results directly.

func mustWrite(t *testing.T, f *FileSystem, p, data string) {
	t.Helper()
	var got abi.Errno = -1
	f.WriteFile(p, []byte(data), 0o644, func(err abi.Errno) { got = err })
	if got != abi.OK {
		t.Fatalf("WriteFile(%s): %v", p, got)
	}
}

func mustRead(t *testing.T, f *FileSystem, p string) string {
	t.Helper()
	var data []byte
	var got abi.Errno = -1
	f.ReadFile(p, func(b []byte, err abi.Errno) { data, got = b, err })
	if got != abi.OK {
		t.Fatalf("ReadFile(%s): %v", p, got)
	}
	return string(data)
}

func mustMkdirAll(t *testing.T, f *FileSystem, p string) {
	t.Helper()
	var got abi.Errno = -1
	f.MkdirAll(p, 0o755, func(err abi.Errno) { got = err })
	if got != abi.OK {
		t.Fatalf("MkdirAll(%s): %v", p, got)
	}
}

func newFS() *FileSystem { return NewFileSystem(NewMemFS(now), func() int64 { return clock }) }

func TestMemFSWriteReadRoundTrip(t *testing.T) {
	f := newFS()
	mustMkdirAll(t, f, "/tmp/a/b")
	mustWrite(t, f, "/tmp/a/b/file.txt", "hello browsix")
	if got := mustRead(t, f, "/tmp/a/b/file.txt"); got != "hello browsix" {
		t.Fatalf("read back %q", got)
	}
}

func TestOpenErrors(t *testing.T) {
	f := newFS()
	mustWrite(t, f, "/x", "1")
	cases := []struct {
		path  string
		flags int
		want  abi.Errno
	}{
		{"/nope", abi.O_RDONLY, abi.ENOENT},
		{"/x", abi.O_CREAT | abi.O_EXCL, abi.EEXIST},
		{"/", abi.O_WRONLY, abi.EISDIR},
		{"/nope/deep", abi.O_CREAT | abi.O_WRONLY, abi.ENOENT},
	}
	for _, c := range cases {
		var got abi.Errno
		f.Open(c.path, c.flags, 0o644, func(_ FileHandle, err abi.Errno) { got = err })
		if got != c.want {
			t.Errorf("Open(%s, %#x) = %v, want %v", c.path, c.flags, got, c.want)
		}
	}
}

func TestTruncAndAppendSemantics(t *testing.T) {
	f := newFS()
	mustWrite(t, f, "/f", "0123456789")
	// O_TRUNC empties the file.
	f.Open("/f", abi.O_WRONLY|abi.O_TRUNC, 0, func(h FileHandle, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("open trunc: %v", err)
		}
		h.Pwrite(0, []byte("ab"), func(int, abi.Errno) {})
		h.Close(func(abi.Errno) {})
	})
	if got := mustRead(t, f, "/f"); got != "ab" {
		t.Fatalf("after trunc+write: %q", got)
	}
}

// TestMemFSAppendGrowsAmortized guards memfs file growth: appends
// through the VFS allocate in proportion to the file, not its square; a
// slice ReadFileShared handed out keeps its bytes when a later append
// fits in the spare capacity; and bytes a shrinking truncate leaves in
// the capacity read as zeros when a write re-exposes them.
func TestMemFSAppendGrowsAmortized(t *testing.T) {
	const appends, chunk = 1000, 256
	const final = appends * chunk
	line := bytes.Repeat([]byte{'a'}, chunk)
	var mem *MemFS
	var f *FileSystem
	var h FileHandle
	// Another goroutine's allocation can only add to a window, so the
	// least of up to 5 windows is the appends' own cost.
	best := uint64(math.MaxUint64)
	for w := 0; w < 5 && best >= 4*final; w++ {
		mem = NewMemFS(now)
		f = NewFileSystem(mem, func() int64 { return clock })
		h = openWB(t, f, "/log", abi.O_WRONLY|abi.O_CREAT)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < appends; i++ {
			h.Pwrite(int64(i*chunk), line, func(int, abi.Errno) {})
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best >= 4*final {
		t.Fatalf("%d appends of %d B allocated %d B, want under %d (4x the file)", appends, chunk, best, 4*final)
	}
	if got := mustRead(t, f, "/log"); got != strings.Repeat("a", final) {
		t.Fatalf("appended file reads %d bytes, want %d of 'a'", len(got), final)
	}

	n := mem.lookup("/log")
	if cap(n.data)-len(n.data) < chunk {
		t.Fatalf("no spare capacity after the appends (len %d, cap %d)", len(n.data), cap(n.data))
	}
	shared := mustReadShared(t, f, "/log")
	pwrite(t, h, final, "bbbb") // fits in the spare capacity
	if string(shared) != strings.Repeat("a", final) {
		t.Fatalf("an append changed the ReadFileShared slice")
	}
	if got := mustRead(t, f, "/log"); got != strings.Repeat("a", final)+"bbbb" {
		t.Fatalf("file after the append reads %d bytes, want %d", len(got), final+4)
	}

	var terr abi.Errno = -1
	h.Truncate(0, func(err abi.Errno) { terr = err })
	if terr != abi.OK {
		t.Fatalf("truncate: %v", terr)
	}
	pwrite(t, h, 100, "x")
	closeH(t, h)
	if got := mustRead(t, f, "/log"); got != strings.Repeat("\x00", 100)+"x" {
		t.Fatalf("after truncate to 0 and a write at 100: %q", got)
	}
}

func TestPreadBounds(t *testing.T) {
	f := newFS()
	mustWrite(t, f, "/f", "abcdef")
	f.Open("/f", abi.O_RDONLY, 0, func(h FileHandle, err abi.Errno) {
		h.Pread(4, 10, func(b []byte, err abi.Errno) {
			if string(b) != "ef" || err != abi.OK {
				t.Fatalf("pread tail = %q, %v", b, err)
			}
		})
		h.Pread(100, 5, func(b []byte, err abi.Errno) {
			if len(b) != 0 || err != abi.OK {
				t.Fatalf("pread past EOF = %q, %v", b, err)
			}
		})
	})
}

func TestUnlinkRmdirSemantics(t *testing.T) {
	f := newFS()
	mustMkdirAll(t, f, "/d/sub")
	mustWrite(t, f, "/d/f", "x")
	var err abi.Errno
	f.Rmdir("/d", func(e abi.Errno) { err = e })
	if err != abi.ENOTEMPTY {
		t.Fatalf("rmdir nonempty = %v, want ENOTEMPTY", err)
	}
	f.Unlink("/d/sub", func(e abi.Errno) { err = e })
	if err != abi.EISDIR {
		t.Fatalf("unlink dir = %v, want EISDIR", err)
	}
	f.Unlink("/d/f", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("unlink = %v", err)
	}
	f.Rmdir("/d/sub", func(e abi.Errno) { err = e })
	f.Rmdir("/d", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("rmdir after empty = %v", err)
	}
	f.Stat("/d", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatalf("stat removed dir = %v", err)
	}
}

func TestRenameReplacesAndMoves(t *testing.T) {
	f := newFS()
	mustMkdirAll(t, f, "/a")
	mustMkdirAll(t, f, "/b")
	mustWrite(t, f, "/a/f", "content")
	var err abi.Errno
	f.Rename("/a/f", "/b/g", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("rename: %v", err)
	}
	if got := mustRead(t, f, "/b/g"); got != "content" {
		t.Fatalf("moved content %q", got)
	}
	f.Stat("/a/f", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatal("source still exists after rename")
	}
}

func TestSymlinkResolution(t *testing.T) {
	f := newFS()
	mustWrite(t, f, "/target", "via link")
	var err abi.Errno
	f.Symlink("/target", "/link", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("symlink: %v", err)
	}
	if got := mustRead(t, f, "/link"); got != "via link" {
		t.Fatalf("read through link: %q", got)
	}
	var st abi.Stat
	f.Lstat("/link", func(s abi.Stat, e abi.Errno) { st = s })
	if !st.IsSymlink() {
		t.Fatal("lstat should not follow")
	}
	f.Stat("/link", func(s abi.Stat, e abi.Errno) { st = s })
	if !st.IsRegular() {
		t.Fatal("stat should follow")
	}
	// Relative symlink.
	mustMkdirAll(t, f, "/dir")
	mustWrite(t, f, "/dir/real", "rel")
	f.Symlink("real", "/dir/rl", func(e abi.Errno) { err = e })
	if got := mustRead(t, f, "/dir/rl"); got != "rel" {
		t.Fatalf("relative link read: %q", got)
	}
}

func TestSymlinkLoopELOOP(t *testing.T) {
	f := newFS()
	f.Symlink("/b", "/a", func(abi.Errno) {})
	f.Symlink("/a", "/b", func(abi.Errno) {})
	var err abi.Errno
	f.Stat("/a", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ELOOP {
		t.Fatalf("loop stat = %v, want ELOOP", err)
	}
}

func TestMountResolutionLongestPrefix(t *testing.T) {
	f := newFS()
	sub := NewMemFS(now)
	mustMkdirAll(t, f, "/usr/share")
	f.Mount("/usr/share/texlive", sub)
	mustWrite(t, f, "/usr/share/texlive/x.sty", "sty")
	// The file must live in the sub backend, not the root.
	var err abi.Errno
	sub.Stat("/x.sty", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatal("file not routed to mounted backend")
	}
	if got := mustRead(t, f, "/usr/share/texlive/x.sty"); got != "sty" {
		t.Fatalf("read through mount: %q", got)
	}
	// Mount point appears in parent readdir.
	var names []string
	f.Readdir("/usr/share", func(ents []abi.Dirent, e abi.Errno) {
		for _, d := range ents {
			names = append(names, d.Name)
		}
	})
	found := false
	for _, n := range names {
		if n == "texlive" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mount point missing from readdir: %v", names)
	}
}

func TestReadOnlyMemFS(t *testing.T) {
	m := NewMemFS(now)
	f := NewFileSystem(m, func() int64 { return clock })
	mustWrite(t, f, "/f", "frozen")
	m.SetReadOnly()
	var err abi.Errno
	f.WriteFile("/g", []byte("x"), 0o644, func(e abi.Errno) { err = e })
	if err != abi.EROFS {
		t.Fatalf("write to ro fs = %v, want EROFS", err)
	}
	if got := mustRead(t, f, "/f"); got != "frozen" {
		t.Fatal("read from ro fs failed")
	}
}

// fakeFetcher serves files synchronously (network modelling is tested at
// the netsim level).
type fakeFetcher struct {
	files   map[string][]byte
	fetches []string
}

func (ff *fakeFetcher) Fetch(p string, cb func([]byte, int)) {
	ff.fetches = append(ff.fetches, p)
	if b, ok := ff.files[p]; ok {
		cb(b, 200)
		return
	}
	cb(nil, 404)
}

func newTexFetcher() *fakeFetcher {
	return &fakeFetcher{files: map[string][]byte{
		"/cls/article.cls":  []byte("% article class"),
		"/sty/graphicx.sty": []byte("% graphicx"),
		"/fonts/cmr10.tfm":  bytes.Repeat([]byte{7}, 1024),
	}}
}

func newHTTPFS(t *testing.T, ff *fakeFetcher) *HTTPFS {
	t.Helper()
	idx := map[string]int64{}
	for p, b := range ff.files {
		idx[p] = int64(len(b))
	}
	h, err := NewHTTPFS(BuildIndex(idx), ff, func() int64 { return clock })
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHTTPFSLazyFetchAndCache(t *testing.T) {
	ff := newTexFetcher()
	h := newHTTPFS(t, ff)
	// Stat must not fetch.
	var st abi.Stat
	h.Stat("/cls/article.cls", func(s abi.Stat, e abi.Errno) { st = s })
	if len(ff.fetches) != 0 {
		t.Fatal("stat caused a network fetch")
	}
	if st.Size != int64(len("% article class")) {
		t.Fatalf("index size = %d", st.Size)
	}
	// First open fetches; second is served from cache.
	read := func() string {
		var data []byte
		h.Open("/cls/article.cls", abi.O_RDONLY, 0, func(fh FileHandle, e abi.Errno) {
			if e != abi.OK {
				t.Fatalf("open: %v", e)
			}
			fh.Pread(0, 100, func(b []byte, e abi.Errno) { data = b })
		})
		return string(data)
	}
	if got := read(); got != "% article class" {
		t.Fatalf("first read %q", got)
	}
	if got := read(); got != "% article class" {
		t.Fatalf("second read %q", got)
	}
	if h.FetchCount != 1 || len(ff.fetches) != 1 {
		t.Fatalf("fetches = %d, want 1 (cache miss then hit)", h.FetchCount)
	}
}

func TestHTTPFSDirsFromIndex(t *testing.T) {
	h := newHTTPFS(t, newTexFetcher())
	var names []string
	h.Readdir("/", func(ents []abi.Dirent, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("readdir: %v", e)
		}
		for _, d := range ents {
			names = append(names, fmt.Sprintf("%s/%d", d.Name, d.Type))
		}
	})
	if len(names) != 3 { // cls, sty, fonts
		t.Fatalf("root entries = %v", names)
	}
	var err abi.Errno
	h.Mkdir("/new", 0o755, func(e abi.Errno) { err = e })
	if err != abi.EROFS {
		t.Fatalf("mkdir on httpfs = %v, want EROFS", err)
	}
}

func TestHTTPFSPreloadEager(t *testing.T) {
	ff := newTexFetcher()
	h := newHTTPFS(t, ff)
	done := false
	h.Preload(func() { done = true })
	if !done || h.FetchCount != 3 {
		t.Fatalf("preload fetched %d, want 3", h.FetchCount)
	}
}

func TestOverlayLazyCopyUp(t *testing.T) {
	ff := newTexFetcher()
	lower := newHTTPFS(t, ff)
	upper := NewMemFS(now)
	ov := NewOverlayFS(upper, lower)
	f := NewFileSystem(ov, func() int64 { return clock })

	// Read-only access does not copy up.
	if got := mustRead(t, f, "/sty/graphicx.sty"); got != "% graphicx" {
		t.Fatalf("read lower: %q", got)
	}
	var err abi.Errno
	upper.Stat("/sty/graphicx.sty", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatal("read-only access should not copy up")
	}

	// Append-style write copies up first.
	f.Open("/sty/graphicx.sty", abi.O_RDWR, 0, func(h FileHandle, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("open rw: %v", e)
		}
		h.Pwrite(int64(len("% graphicx")), []byte(" v2"), func(int, abi.Errno) {})
		h.Close(func(abi.Errno) {})
	})
	if got := mustRead(t, f, "/sty/graphicx.sty"); got != "% graphicx v2" {
		t.Fatalf("after copy-up write: %q", got)
	}
	upper.Stat("/sty/graphicx.sty", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatal("write did not copy up")
	}
	// Lower remains pristine.
	var lowerData []byte
	lower.Open("/sty/graphicx.sty", abi.O_RDONLY, 0, func(h FileHandle, e abi.Errno) {
		h.Pread(0, 100, func(b []byte, e abi.Errno) { lowerData = b })
	})
	if string(lowerData) != "% graphicx" {
		t.Fatal("lower layer mutated")
	}
}

func TestOverlayDeletionLog(t *testing.T) {
	lower := NewMemFS(now)
	lfs := NewFileSystem(lower, func() int64 { return clock })
	mustWrite(t, lfs, "/doc.txt", "lower")
	lower.SetReadOnly()
	ov := NewOverlayFS(NewMemFS(now), lower)
	f := NewFileSystem(ov, func() int64 { return clock })

	var err abi.Errno
	f.Unlink("/doc.txt", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("unlink lower file: %v", err)
	}
	f.Stat("/doc.txt", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatal("deleted lower file still visible")
	}
	if len(ov.DeletedPaths()) != 1 {
		t.Fatalf("deletion log = %v", ov.DeletedPaths())
	}
	// Re-creating the file un-deletes it.
	mustWrite(t, f, "/doc.txt", "upper")
	if got := mustRead(t, f, "/doc.txt"); got != "upper" {
		t.Fatalf("recreated: %q", got)
	}
	if len(ov.DeletedPaths()) != 0 {
		t.Fatal("deletion log not cleared on recreate")
	}
}

func TestOverlayReaddirMerge(t *testing.T) {
	lower := NewMemFS(now)
	lfs := NewFileSystem(lower, func() int64 { return clock })
	mustWrite(t, lfs, "/a", "1")
	mustWrite(t, lfs, "/b", "2")
	lower.SetReadOnly()
	ov := NewOverlayFS(NewMemFS(now), lower)
	f := NewFileSystem(ov, func() int64 { return clock })
	mustWrite(t, f, "/c", "3")
	f.Unlink("/b", func(abi.Errno) {})
	var names []string
	f.Readdir("/", func(ents []abi.Dirent, e abi.Errno) {
		for _, d := range ents {
			names = append(names, d.Name)
		}
	})
	if len(names) != 2 || names[0] != "a" || names[1] != "c" {
		t.Fatalf("merged readdir = %v, want [a c]", names)
	}
}

// slowBackend defers one operation's callback so the overlay lock test can
// interleave a competing operation mid-flight.
type slowBackend struct {
	*MemFS
	pending []func()
}

func (s *slowBackend) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	s.MemFS.Open(p, flags, mode, func(h FileHandle, err abi.Errno) {
		s.pending = append(s.pending, func() { cb(h, err) })
	})
}

func TestOverlayLockSerializesAcrossAsyncSpans(t *testing.T) {
	lower := &slowBackend{MemFS: NewMemFS(now)}
	lfs := NewFileSystem(lower.MemFS, func() int64 { return clock })
	mustWrite(t, lfs, "/shared", "orig")
	lower.MemFS.SetReadOnly()
	ov := NewOverlayFS(NewMemFS(now), lower)

	var order []string
	// Op A: open-for-write of a lower file (copy-up spans an async open).
	ov.Open("/shared", abi.O_RDWR, 0, func(h FileHandle, err abi.Errno) {
		order = append(order, "A")
	})
	// Op B arrives while A holds the lock.
	ov.Unlink("/shared", func(err abi.Errno) {
		order = append(order, "B")
	})
	if len(order) != 0 {
		t.Fatalf("ops completed before async lower I/O: %v", order)
	}
	// Release the deferred lower-layer callbacks.
	for len(lower.pending) > 0 {
		p := lower.pending[0]
		lower.pending = lower.pending[1:]
		p()
	}
	if len(order) != 2 || order[0] != "A" || order[1] != "B" {
		t.Fatalf("order = %v, want [A B]", order)
	}
	if ov.LockWaits == 0 {
		t.Fatal("second op never waited on the overlay lock")
	}
}

func TestZipFS(t *testing.T) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for name, content := range map[string]string{
		"bin/prog.js":  "console.log('hi')",
		"etc/conf":     "k=v",
		"share/a/b.md": "docs",
	} {
		w, _ := zw.Create(name)
		w.Write([]byte(content))
	}
	zw.Close()
	z, err := NewZipFS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f := NewFileSystem(z, func() int64 { return clock })
	if got := mustRead(t, f, "/bin/prog.js"); got != "console.log('hi')" {
		t.Fatalf("zip read: %q", got)
	}
	var st abi.Stat
	f.Stat("/share/a", func(s abi.Stat, e abi.Errno) { st = s })
	if !st.IsDir() {
		t.Fatal("zip intermediate dir missing")
	}
	var werr abi.Errno
	f.WriteFile("/bin/new", []byte("x"), 0o644, func(e abi.Errno) { werr = e })
	if werr != abi.EROFS {
		t.Fatalf("zip write = %v, want EROFS", werr)
	}
}

func TestCleanProperty(t *testing.T) {
	// Clean is idempotent and always yields an absolute path.
	f := func(s string) bool {
		c := Clean(s)
		return Clean(c) == c && len(c) > 0 && c[0] == '/'
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMkdirAllIdempotent(t *testing.T) {
	f := newFS()
	mustMkdirAll(t, f, "/x/y/z")
	mustMkdirAll(t, f, "/x/y/z")
	var st abi.Stat
	f.Stat("/x/y/z", func(s abi.Stat, e abi.Errno) { st = s })
	if !st.IsDir() {
		t.Fatal("mkdirall did not create dir")
	}
}

func TestUtimesForMake(t *testing.T) {
	f := newFS()
	mustWrite(t, f, "/src.c", "int main(){}")
	var err abi.Errno
	f.Utimes("/src.c", 111, 222, func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("utimes: %v", err)
	}
	var st abi.Stat
	f.Stat("/src.c", func(s abi.Stat, e abi.Errno) { st = s })
	if st.Mtime != 222 || st.Atime != 111 {
		t.Fatalf("times = %d/%d, want 111/222", st.Atime, st.Mtime)
	}
}
