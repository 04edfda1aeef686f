package fs

import (
	"fmt"
	"testing"

	"repro/internal/abi"
)

// Every write reaches its backend before its callback fires. These tests
// pin what readers see on that one write path: read-after-write across
// descriptors, stat of a file open for writing, unlink or rename while a
// writer is open, sparse holes, and backend errors reported by the write
// itself. (Several names date from the write-back cache the VFS once
// had; the behaviour they check outlived it.)

// Helpers around the callback API (memfs completes inline).

func openWB(t *testing.T, f *FileSystem, p string, flags int) FileHandle {
	t.Helper()
	var h FileHandle
	var got abi.Errno = -1
	f.Open(p, flags, 0o644, func(fh FileHandle, err abi.Errno) { h, got = fh, err })
	if got != abi.OK {
		t.Fatalf("open %s: %v", p, got)
	}
	return h
}

func pwrite(t *testing.T, h FileHandle, off int64, data string) {
	t.Helper()
	var n int
	var got abi.Errno = -1
	h.Pwrite(off, []byte(data), func(m int, err abi.Errno) { n, got = m, err })
	if got != abi.OK || n != len(data) {
		t.Fatalf("pwrite: n=%d err=%v", n, got)
	}
}

func closeH(t *testing.T, h FileHandle) {
	t.Helper()
	var got abi.Errno = -1
	h.Close(func(err abi.Errno) { got = err })
	if got != abi.OK {
		t.Fatalf("close: %v", got)
	}
}

// backendContent reads a path straight from the backend, bypassing the
// VFS and its caches: what is on storage.
func backendContent(t *testing.T, m *MemFS, p string) string {
	t.Helper()
	var out []byte
	m.Open(p, abi.O_RDONLY, 0, func(h FileHandle, err abi.Errno) {
		if err != abi.OK {
			return // missing = empty
		}
		h.Stat(func(st abi.Stat, _ abi.Errno) {
			h.Pread(0, int(st.Size), func(b []byte, _ abi.Errno) { out = b })
		})
		h.Close(func(abi.Errno) {})
	})
	return string(out)
}

// TestFsyncBarrier: each write is on the backend when its callback
// fires, so fsync, which the kernel answers without a flush, finds
// nothing left to land.
func TestFsyncBarrier(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/d.aux", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "citation{x}")
	if got := backendContent(t, mem, "/d.aux"); got != "citation{x}" {
		t.Fatalf("backend content after the write returned: %q", got)
	}
	pwrite(t, h, 11, " more")
	if got := backendContent(t, mem, "/d.aux"); got != "citation{x} more" {
		t.Fatalf("backend content after the second write: %q", got)
	}
	closeH(t, h)
}

// TestFlushOnClose: the bytes are on the backend before and after close;
// close has nothing to land.
func TestFlushOnClose(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/out", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "hello")
	pwrite(t, h, 5, " world")
	if got := backendContent(t, mem, "/out"); got != "hello world" {
		t.Fatalf("before close: %q", got)
	}
	closeH(t, h)
	if got := backendContent(t, mem, "/out"); got != "hello world" {
		t.Fatalf("after close: %q", got)
	}
}

// TestWriteBackOrderedFlush: writes out of offset order, an overlap and
// a write bridging a gap leave the file as their program order says
// (the newest write wins on overlap).
func TestWriteBackOrderedFlush(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/o", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 8, "BBBB") // second run first
	pwrite(t, h, 0, "AAAA") // first run
	pwrite(t, h, 2, "xx")   // overlap: newest wins
	pwrite(t, h, 4, "yyyy") // bridges the gap
	closeH(t, h)
	if got := backendContent(t, mem, "/o"); got != "AAxxyyyyBBBB" {
		t.Fatalf("content %q, want AAxxyyyyBBBB", got)
	}
}

// TestWriteBackReadYourWrites: the writing handle reads its own bytes,
// its Stat and the VFS Stat report the grown size, and a second handle
// reads the same bytes.
func TestWriteBackReadYourWrites(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	mustWrite(t, f, "/f", "0123456789")
	h := openWB(t, f, "/f", abi.O_RDWR)
	pwrite(t, h, 4, "XY")
	pwrite(t, h, 10, "tail") // extends the file
	var got []byte
	h.Pread(0, 64, func(b []byte, err abi.Errno) { got = b })
	if string(got) != "0123XY6789tail" {
		t.Fatalf("read-your-writes: %q", got)
	}
	var st abi.Stat
	h.Stat(func(s abi.Stat, _ abi.Errno) { st = s })
	if st.Size != 14 {
		t.Fatalf("handle size %d, want 14", st.Size)
	}
	var pst abi.Stat
	f.Stat("/f", func(s abi.Stat, _ abi.Errno) { pst = s })
	if pst.Size != 14 {
		t.Fatalf("FS.Stat size %d, want 14", pst.Size)
	}
	if got := mustRead(t, f, "/f"); got != "0123XY6789tail" {
		t.Fatalf("second handle read %q", got)
	}
	closeH(t, h)
}

// TestStatAfterFlushNotPoisoned: a stat taken while a writer is open
// must not plant a dentry that outlives the writer's next write — the
// next stat reports the new size.
func TestStatAfterFlushNotPoisoned(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/p", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "eleven char")
	var mid abi.Stat
	f.Stat("/p", func(s abi.Stat, _ abi.Errno) { mid = s }) // caches a dentry
	if mid.Size != 11 {
		t.Fatalf("mid stat size %d, want 11", mid.Size)
	}
	pwrite(t, h, 11, "s")
	var after abi.Stat
	f.Stat("/p", func(s abi.Stat, _ abi.Errno) { after = s })
	if after.Size != 12 {
		t.Fatalf("stat after the next write: size %d, want 12 (stale dentry survived the write)", after.Size)
	}
	closeH(t, h)
}

// TestWriteBackSparseHole: a write far beyond EOF leaves a hole that
// reads back as zeros, and the size counts the hole.
func TestWriteBackSparseHole(t *testing.T) {
	f := newFS()
	h := openWB(t, f, "/sparse", abi.O_RDWR|abi.O_CREAT)
	pwrite(t, h, 8192, "tail")
	var first []byte
	h.Pread(0, 4096, func(b []byte, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("read hole: %v", err)
		}
		first = b
	})
	var st abi.Stat
	h.Stat(func(s abi.Stat, _ abi.Errno) { st = s })
	closeH(t, h)
	if st.Size != 8196 {
		t.Fatalf("size %d, want 8196", st.Size)
	}
	if len(first) != 4096 {
		t.Fatalf("hole read %d bytes, want 4096", len(first))
	}
	for i, b := range first {
		if b != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, b)
		}
	}
}

// TestWriteBackCrossFdReadBarrier: a reader whose handle predates the
// writer observes completed writes (POSIX read-after-write across
// descriptors).
func TestWriteBackCrossFdReadBarrier(t *testing.T) {
	f := newFS()
	mustWrite(t, f, "/shared", "before")
	r := openWB(t, f, "/shared", abi.O_RDONLY) // opened before the writer
	w := openWB(t, f, "/shared", abi.O_WRONLY)
	pwrite(t, w, 0, "AFTER!")
	var got []byte
	r.Pread(0, 64, func(b []byte, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("read: %v", err)
		}
		got = b
	})
	if string(got) != "AFTER!" {
		t.Fatalf("pre-existing reader saw %q, want AFTER!", got)
	}
	closeH(t, r)
	closeH(t, w)
}

// TestWriteBackStaleFdBypasses: a descriptor kept open across an unlink
// writes to the unlinked file, never to a new file that takes the name.
func TestWriteBackStaleFdBypasses(t *testing.T) {
	f := newFS()
	mustWrite(t, f, "/f", "old")
	h := openWB(t, f, "/f", abi.O_WRONLY)
	pwrite(t, h, 3, "+written") // lands in the old file

	var uerr abi.Errno = -1
	f.Unlink("/f", func(err abi.Errno) { uerr = err })
	if uerr != abi.OK {
		t.Fatalf("unlink: %v", uerr)
	}
	mustWrite(t, f, "/f", "NEW") // a different file under the same name

	pwrite(t, h, 0, "zzz") // stale: must not touch the new /f
	closeH(t, h)
	if got := mustRead(t, f, "/f"); got != "NEW" {
		t.Fatalf("stale fd polluted the new file: %q", got)
	}
}

// TestWriteBackRenameCarriesBytes: bytes written before a rename are in
// the file under its new name, and writes through the still-open
// descriptor after the rename land there too.
func TestWriteBackRenameCarriesBytes(t *testing.T) {
	f := newFS()
	h := openWB(t, f, "/a", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "payload")
	var rerr abi.Errno = -1
	f.Rename("/a", "/b", func(err abi.Errno) { rerr = err })
	if rerr != abi.OK {
		t.Fatalf("rename: %v", rerr)
	}
	pwrite(t, h, 7, "+")
	closeH(t, h)
	if got := mustRead(t, f, "/b"); got != "payload+" {
		t.Fatalf("renamed file content %q", got)
	}
}

// TestFlushOnUnmount: a Mount, which drops every cache, loses none of
// the bytes a still-open writer wrote.
func TestFlushOnUnmount(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/keep", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "survives")
	f.Mount("/mnt", NewMemFS(now))
	if got := backendContent(t, mem, "/keep"); got != "survives" {
		t.Fatalf("mount dropped written bytes: %q", got)
	}
	if got := mustRead(t, f, "/keep"); got != "survives" {
		t.Fatalf("read after mount: %q", got)
	}
	closeH(t, h)
}

// TestWriteBackDifferentialOnOff: a mixed workload (appends, overwrite,
// truncate, a write past the truncation, a second file) reads back
// exactly as a byte-slice model of the same operations says, through the
// VFS and on the backend.
func TestWriteBackDifferentialOnOff(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/w", abi.O_WRONLY|abi.O_CREAT)
	var model []byte
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("%03d;", i)
		pwrite(t, h, int64(len(model)), s)
		model = append(model, s...)
	}
	pwrite(t, h, 10, "OVERWRITE!")
	copy(model[10:], "OVERWRITE!")
	var terr abi.Errno = -1
	h.Truncate(100, func(err abi.Errno) { terr = err })
	if terr != abi.OK {
		t.Fatalf("truncate: %v", terr)
	}
	pwrite(t, h, 100, "tail")
	model = append(model[:100], "tail"...)
	closeH(t, h)
	mustWrite(t, f, "/w2", "x")
	if got := mustRead(t, f, "/w"); got != string(model) {
		t.Fatalf("VFS read diverges from the model:\ngot:  %q\nwant: %q", got, model)
	}
	if got := backendContent(t, mem, "/w"); got != string(model) {
		t.Fatalf("backend diverges from the model:\ngot:  %q\nwant: %q", got, model)
	}
	if got := mustRead(t, f, "/w2"); got != "x" {
		t.Fatalf("/w2 = %q", got)
	}
}

// failingBackend wraps a backend so opened handles fail writes while
// *fail is set.
type failingBackend struct {
	Backend
	fail *bool
}

func (b *failingBackend) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	b.Backend.Open(p, flags, mode, func(h FileHandle, err abi.Errno) {
		if err == abi.OK {
			h = &failingHandle{FileHandle: h, fail: b.fail}
		}
		cb(h, err)
	})
}

type failingHandle struct {
	FileHandle
	fail *bool
}

func (h *failingHandle) Pwrite(off int64, data []byte, cb func(int, abi.Errno)) {
	if *h.fail {
		cb(0, abi.EIO)
		return
	}
	h.FileHandle.Pwrite(off, data, cb)
}

func (h *failingHandle) Pwritev(off int64, bufs [][]byte, cb func(int, abi.Errno)) {
	if *h.fail {
		cb(0, abi.EIO)
		return
	}
	h.FileHandle.Pwritev(off, bufs, cb)
}

// TestWriteErrorSurfacesAtWrite: a backend write failure is the failing
// write's own result, on both write calls, and close stays clean.
func TestWriteErrorSurfacesAtWrite(t *testing.T) {
	fail := false
	f := NewFileSystem(&failingBackend{Backend: NewMemFS(now), fail: &fail}, func() int64 { return clock })
	h := openWB(t, f, "/flaky.log", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "kept ")
	fail = true
	var werr, wverr abi.Errno = -1, -1
	h.Pwrite(5, []byte("lost"), func(_ int, err abi.Errno) { werr = err })
	h.Pwritev(5, [][]byte{[]byte("lost")}, func(_ int, err abi.Errno) { wverr = err })
	if werr != abi.EIO || wverr != abi.EIO {
		t.Fatalf("failed writes returned %v and %v, want EIO", werr, wverr)
	}
	fail = false
	closeH(t, h)
	if got := mustRead(t, f, "/flaky.log"); got != "kept " {
		t.Fatalf("content %q, want %q", got, "kept ")
	}
}

// BenchmarkAppendLog measures the pdflatex-style append workload — many
// tiny sequential writes to one log file, then close — through the VFS
// to memfs. Each iteration truncates the log at open, so memory stays
// bounded.
func BenchmarkAppendLog(b *testing.B) {
	const writes = 1000
	line := []byte("pdflatex: Overfull \\hbox (badness 10000) in paragraph\n")
	f := newFS()
	b.SetBytes(int64(writes * len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var h FileHandle
		f.Open("/log", abi.O_WRONLY|abi.O_CREAT|abi.O_TRUNC, 0o644, func(fh FileHandle, err abi.Errno) {
			if err != abi.OK {
				b.Fatalf("open: %v", err)
			}
			h = fh
		})
		off := int64(0)
		for j := 0; j < writes; j++ {
			h.Pwrite(off, line, func(int, abi.Errno) {})
			off += int64(len(line))
		}
		h.Close(func(abi.Errno) {})
	}
}
