package fs

import (
	"archive/zip"
	"bytes"
	"testing"

	"repro/internal/abi"
)

// Overlay copy-up + rename + deletion-log interactions, and error paths
// of the read-only network backends (httpfs, zipfs).

func newOverlayWorld(t *testing.T) (*FileSystem, *OverlayFS, *MemFS, *MemFS) {
	t.Helper()
	lower := NewMemFS(now)
	lfs := NewFileSystem(lower, func() int64 { return clock })
	mustMkdirAll(t, lfs, "/a")
	mustMkdirAll(t, lfs, "/b")
	mustWrite(t, lfs, "/a/f1", "lower-f1")
	mustWrite(t, lfs, "/a/f2", "lower-f2")
	mustWrite(t, lfs, "/b/g", "lower-g")
	lower.SetReadOnly()
	upper := NewMemFS(now)
	ov := NewOverlayFS(upper, lower)
	return NewFileSystem(ov, func() int64 { return clock }), ov, upper, lower
}

func readdirNamesOf(t *testing.T, f *FileSystem, p string) []string {
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
		t.Fatalf("readdir(%s): %v", p, err)
	}
	return names
}

func TestOverlayRenameOfLowerFileCopiesUpAndLogsDeletion(t *testing.T) {
	f, ov, upper, lower := newOverlayWorld(t)
	var err abi.Errno
	f.Rename("/a/f1", "/a/r1", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("rename lower file: %v", err)
	}
	// New name carries the content; old name is hidden by the log.
	if got := mustRead(t, f, "/a/r1"); got != "lower-f1" {
		t.Fatalf("renamed content: %q", got)
	}
	f.Stat("/a/f1", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatal("old name still visible after rename")
	}
	if dp := ov.DeletedPaths(); len(dp) != 1 || dp[0] != "/a/f1" {
		t.Fatalf("deletion log = %v, want [/a/f1]", dp)
	}
	// Copy-up happened into the upper layer; the lower layer is pristine.
	upper.Stat("/a/r1", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatal("renamed file not in upper layer")
	}
	lower.Stat("/a/f1", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatal("lower layer mutated by rename")
	}
	names := readdirNamesOf(t, f, "/a")
	if len(names) != 2 || names[0] != "f2" || names[1] != "r1" {
		t.Fatalf("readdir after rename = %v, want [f2 r1]", names)
	}
}

func TestOverlayRenameOntoDeletedPathClearsLog(t *testing.T) {
	f, ov, _, _ := newOverlayWorld(t)
	var err abi.Errno
	f.Unlink("/a/f2", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("unlink: %v", err)
	}
	f.Rename("/b/g", "/a/f2", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("rename onto deleted path: %v", err)
	}
	if got := mustRead(t, f, "/a/f2"); got != "lower-g" {
		t.Fatalf("content after rename onto deleted: %q", got)
	}
	// /a/f2's deletion must be cleared; /b/g's must be recorded.
	if dp := ov.DeletedPaths(); len(dp) != 1 || dp[0] != "/b/g" {
		t.Fatalf("deletion log = %v, want [/b/g]", dp)
	}
	f.Stat("/b/g", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatal("rename source still visible")
	}
}

func TestOverlayUnlinkAfterCopyUpStaysHidden(t *testing.T) {
	f, ov, _, _ := newOverlayWorld(t)
	// Write-open forces a copy-up, then unlink must hide both layers.
	f.Open("/a/f1", abi.O_RDWR, 0, func(h FileHandle, e abi.Errno) {
		if e != abi.OK {
			t.Fatalf("open rw: %v", e)
		}
		h.Pwrite(0, []byte("upper-f1"), func(int, abi.Errno) {})
		h.Close(func(abi.Errno) {})
	})
	if got := mustRead(t, f, "/a/f1"); got != "upper-f1" {
		t.Fatalf("after copy-up write: %q", got)
	}
	var err abi.Errno
	f.Unlink("/a/f1", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("unlink copied-up file: %v", err)
	}
	f.Stat("/a/f1", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatal("unlinked copy-up still visible (lower leaked through)")
	}
	if dp := ov.DeletedPaths(); len(dp) != 1 || dp[0] != "/a/f1" {
		t.Fatalf("deletion log = %v, want [/a/f1]", dp)
	}
	// Re-creating clears the log and shadows the lower file again.
	mustWrite(t, f, "/a/f1", "recreated")
	if got := mustRead(t, f, "/a/f1"); got != "recreated" {
		t.Fatalf("recreated content: %q", got)
	}
	if len(ov.DeletedPaths()) != 0 {
		t.Fatalf("deletion log not cleared: %v", ov.DeletedPaths())
	}
}

func TestOverlayRmdirOfLowerDirLogsAndHides(t *testing.T) {
	f, ov, _, _ := newOverlayWorld(t)
	var err abi.Errno
	// /b still holds g: rmdir must refuse.
	f.Rmdir("/b", func(e abi.Errno) { err = e })
	if err != abi.ENOTEMPTY {
		t.Fatalf("rmdir nonempty = %v, want ENOTEMPTY", err)
	}
	f.Unlink("/b/g", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("unlink: %v", err)
	}
	f.Rmdir("/b", func(e abi.Errno) { err = e })
	if err != abi.OK {
		t.Fatalf("rmdir emptied lower dir: %v", err)
	}
	f.Stat("/b", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatal("removed lower dir still visible")
	}
	found := false
	for _, p := range ov.DeletedPaths() {
		if p == "/b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("deletion log %v missing /b", ov.DeletedPaths())
	}
	names := readdirNamesOf(t, f, "/")
	for _, n := range names {
		if n == "b" {
			t.Fatalf("readdir(/) still lists removed dir: %v", names)
		}
	}
}

func TestSymlinkOverExistingLowerFileIsEEXIST(t *testing.T) {
	// POSIX symlink(2): EEXIST if linkp exists — including when it only
	// exists in the overlay's lower layer, which the backend's own
	// upper-layer check would miss.
	f, _, _, _ := newOverlayWorld(t)
	var err abi.Errno = -1
	f.Symlink("/a/f2", "/a/f1", func(e abi.Errno) { err = e })
	if err != abi.EEXIST {
		t.Fatalf("symlink over lower file = %v, want EEXIST", err)
	}
	if got := mustRead(t, f, "/a/f1"); got != "lower-f1" {
		t.Fatalf("lower file shadowed by refused symlink: %q", got)
	}
}

// --- httpfs error paths ----------------------------------------------------

func TestHTTPFSMissingIndexEntry(t *testing.T) {
	ff := newTexFetcher()
	h := newHTTPFS(t, ff)
	var err abi.Errno = -1
	h.Open("/not/in/index.sty", abi.O_RDONLY, 0, func(_ FileHandle, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatalf("open unindexed = %v, want ENOENT", err)
	}
	if len(ff.fetches) != 0 {
		t.Fatalf("miss caused %d network fetches, want 0 (the index answers)", len(ff.fetches))
	}
	h.Stat("/not/in/index.sty", func(_ abi.Stat, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatalf("stat unindexed = %v, want ENOENT", err)
	}
	h.Readdir("/cls/article.cls", func(_ []abi.Dirent, e abi.Errno) { err = e })
	if err != abi.ENOTDIR {
		t.Fatalf("readdir of file = %v, want ENOTDIR", err)
	}
	h.Readdir("/nope", func(_ []abi.Dirent, e abi.Errno) { err = e })
	if err != abi.ENOENT {
		t.Fatalf("readdir missing = %v, want ENOENT", err)
	}
}

func TestHTTPFSFetchFailureIsEIO(t *testing.T) {
	// The index promises a file the server cannot deliver (404): EIO, at
	// the backend and through the VFS (where the open is lazy and the
	// error surfaces on first read).
	ff := newTexFetcher()
	idx := map[string]int64{"/cls/article.cls": 15, "/ghost.sty": 99}
	h, err := NewHTTPFS(BuildIndex(idx), ff, func() int64 { return clock })
	if err != nil {
		t.Fatal(err)
	}
	var oerr abi.Errno = -1
	h.Open("/ghost.sty", abi.O_RDONLY, 0, func(_ FileHandle, e abi.Errno) { oerr = e })
	if oerr != abi.EIO {
		t.Fatalf("open of 404 file = %v, want EIO", oerr)
	}

	f := newFS()
	mustMkdirAll(t, f, "/tex")
	f.Mount("/tex", h)
	var rerr abi.Errno = -1
	f.ReadFile("/tex/ghost.sty", func(_ []byte, e abi.Errno) { rerr = e })
	if rerr != abi.EIO {
		t.Fatalf("VFS read of 404 file = %v, want EIO", rerr)
	}
	if got := mustRead(t, f, "/tex/cls/article.cls"); got != "% article class" {
		t.Fatalf("healthy file after failed fetch: %q", got)
	}
}

// --- zipfs error paths -----------------------------------------------------

func buildZip(t testing.TB, files map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for name, content := range files {
		w, err := zw.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		w.Write([]byte(content))
	}
	zw.Close()
	return buf.Bytes()
}

func TestZipFSGarbageArchiveRejected(t *testing.T) {
	if _, err := NewZipFS([]byte("this is not a zip archive")); err == nil {
		t.Fatal("garbage archive accepted")
	}
	if _, err := NewZipFS(nil); err == nil {
		t.Fatal("empty archive accepted")
	}
}

func TestZipFSTruncatedMemberIsEIO(t *testing.T) {
	// Incompressible payload, so the member's deflate stream is large
	// and the corruption below cannot reach the central directory.
	payload := make([]byte, 16<<10)
	seed := uint32(0x9E3779B9)
	for i := range payload {
		seed = seed*1664525 + 1013904223
		payload[i] = byte(seed >> 24)
	}
	archive := buildZip(t, map[string]string{"data/blob.bin": string(payload)})
	// Corrupt the member's compressed stream without touching the
	// central directory at the end: the index still lists the file, but
	// decompression fails at open.
	corrupted := append([]byte(nil), archive...)
	for i := 100; i < 1000; i++ {
		corrupted[i] ^= 0xFF
	}
	z, err := NewZipFS(corrupted)
	if err != nil {
		t.Fatalf("central directory should still parse: %v", err)
	}
	var st abi.Stat
	var serr abi.Errno
	z.Stat("/data/blob.bin", func(s abi.Stat, e abi.Errno) { st, serr = s, e })
	if serr != abi.OK || st.Size != int64(len(payload)) {
		t.Fatalf("index stat = %v size %d", serr, st.Size)
	}
	var oerr abi.Errno = -1
	z.Open("/data/blob.bin", abi.O_RDONLY, 0, func(_ FileHandle, e abi.Errno) { oerr = e })
	if oerr != abi.EIO {
		t.Fatalf("open of corrupted member = %v, want EIO", oerr)
	}
	// Through the VFS (lazy open: the error surfaces on read).
	f := newFS()
	mustMkdirAll(t, f, "/z")
	f.Mount("/z", z)
	var rerr abi.Errno = -1
	f.ReadFile("/z/data/blob.bin", func(_ []byte, e abi.Errno) { rerr = e })
	if rerr != abi.EIO {
		t.Fatalf("VFS read of corrupted member = %v, want EIO", rerr)
	}
	var uerr abi.Errno = -1
	z.Open("/data/missing.bin", abi.O_RDONLY, 0, func(_ FileHandle, e abi.Errno) { uerr = e })
	if uerr != abi.ENOENT {
		t.Fatalf("open missing member = %v, want ENOENT", uerr)
	}
}
