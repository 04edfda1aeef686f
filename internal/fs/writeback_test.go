package fs

import (
	"fmt"
	"testing"

	"repro/internal/abi"
)

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
// VFS (and therefore the dirty buffers) — what is durably on storage.
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

// TestWriteBackCoalescesBackendWrites is the headline guard: a
// pdflatex-style append workload (many tiny writes to one file) must
// reach the backend as >= 10x fewer write calls under write-back than
// write-through. Deterministic: memfs counts every handle write.
func TestWriteBackCoalescesBackendWrites(t *testing.T) {
	const writes = 500
	run := func(writeBack bool) (backendWrites int64, content string) {
		mem := NewMemFS(now)
		f := NewFileSystem(mem, func() int64 { return clock })
		f.SetFeatures(Features{NoWriteBack: !writeBack})
		h := openWB(t, f, "/job.log", abi.O_WRONLY|abi.O_CREAT)
		off := int64(0)
		for i := 0; i < writes; i++ {
			line := fmt.Sprintf("log line %04d\n", i)
			pwrite(t, h, off, line)
			off += int64(len(line))
		}
		closeH(t, h)
		return mem.WriteOps, backendContent(t, mem, "/job.log")
	}
	wbWrites, wbContent := run(true)
	wtWrites, wtContent := run(false)
	if wbContent != wtContent {
		t.Fatalf("write-back content diverges from write-through (%d vs %d bytes)",
			len(wbContent), len(wtContent))
	}
	if wtWrites < writes {
		t.Fatalf("write-through issued %d backend writes, want >= %d", wtWrites, writes)
	}
	if wbWrites*10 > wtWrites {
		t.Fatalf("write-back issued %d backend writes vs %d write-through — want >= 10x fewer",
			wbWrites, wtWrites)
	}
}

// TestWriteBackGuardStrictlyFewer pins the CI invariant: a coalesced
// flush issues strictly fewer backend writes than write-through, even
// for a tiny burst.
func TestWriteBackGuardStrictlyFewer(t *testing.T) {
	run := func(writeBack bool) int64 {
		mem := NewMemFS(now)
		f := NewFileSystem(mem, func() int64 { return clock })
		f.SetFeatures(Features{NoWriteBack: !writeBack})
		h := openWB(t, f, "/f", abi.O_WRONLY|abi.O_CREAT)
		pwrite(t, h, 0, "aa")
		pwrite(t, h, 2, "bb")
		closeH(t, h)
		return mem.WriteOps
	}
	wb, wt := run(true), run(false)
	if wb >= wt {
		t.Fatalf("coalesced flush: %d backend writes, write-through: %d — want strictly fewer", wb, wt)
	}
}

// TestFsyncBarrier: buffered bytes are NOT on the backend before fsync
// and ARE on it when fsync's callback fires (flush-before-reply).
func TestFsyncBarrier(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/d.aux", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "citation{x}")
	if got := backendContent(t, mem, "/d.aux"); got != "" {
		t.Fatalf("bytes on backend before fsync: %q", got)
	}
	if f.CacheStats().DirtyBytes == 0 {
		t.Fatal("no dirty bytes buffered")
	}
	s, ok := h.(Syncer)
	if !ok {
		t.Fatal("write handle does not implement Syncer")
	}
	fsynced := false
	s.Sync(func(err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("fsync: %v", err)
		}
		if got := backendContent(t, mem, "/d.aux"); got != "citation{x}" {
			t.Fatalf("fsync completed with backend content %q", got)
		}
		fsynced = true
	})
	if !fsynced {
		t.Fatal("fsync did not complete")
	}
	if st := f.CacheStats(); st.DirtyBytes != 0 {
		t.Fatalf("dirty bytes after fsync: %d", st.DirtyBytes)
	}
	// Writes after the barrier buffer again and flush on close.
	pwrite(t, h, 11, " more")
	closeH(t, h)
	if got := backendContent(t, mem, "/d.aux"); got != "citation{x} more" {
		t.Fatalf("after close: %q", got)
	}
}

// TestFlushOnClose: close is a barrier; nothing rides on later activity.
func TestFlushOnClose(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/out", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "hello")
	pwrite(t, h, 5, " world")
	closeH(t, h)
	if got := backendContent(t, mem, "/out"); got != "hello world" {
		t.Fatalf("after close: %q", got)
	}
	if st := f.CacheStats(); st.DirtyBytes != 0 || st.FlushWrites != 1 {
		t.Fatalf("stats after close: dirty=%d flushWrites=%d (want 0, 1)", st.DirtyBytes, st.FlushWrites)
	}
}

// TestDirtyBudgetOverflow: exceeding the budget forces a flush of
// everything; content is never lost and the buffer drains.
func TestDirtyBudgetOverflow(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	f.SetDirtyBudget(1024)
	h := openWB(t, f, "/big", abi.O_WRONLY|abi.O_CREAT)
	payload := ""
	for i := 0; i < 64; i++ { // 64 * 32 B = 2 KiB > 1 KiB budget
		chunk := fmt.Sprintf("chunk %02d aaaaaaaaaaaaaaaaaaaaaa\n", i)
		pwrite(t, h, int64(len(payload)), chunk)
		payload += chunk
	}
	st := f.CacheStats()
	if st.OverflowFlushes == 0 {
		t.Fatal("budget exceeded but no overflow flush")
	}
	if st.DirtyBytes > 1024 {
		t.Fatalf("dirty bytes %d still over budget", st.DirtyBytes)
	}
	closeH(t, h)
	if got := backendContent(t, mem, "/big"); got != payload {
		t.Fatalf("content after overflow + close: %d bytes, want %d", len(got), len(payload))
	}
}

// TestWriteBackOrderedFlush: disjoint extents land in ascending offset
// order as separate vectored writes; overlaps resolve newest-wins.
func TestWriteBackOrderedFlush(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/o", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 8, "BBBB") // second extent first
	pwrite(t, h, 0, "AAAA") // first extent
	pwrite(t, h, 2, "xx")   // overlap: newest wins
	pwrite(t, h, 4, "yyyy") // bridges the gap: extents merge
	closeH(t, h)
	if got := backendContent(t, mem, "/o"); got != "AAxxyyyyBBBB" {
		t.Fatalf("flushed content %q, want AAxxyyyyBBBB", got)
	}
	if st := f.CacheStats(); st.FlushWrites != 1 {
		t.Fatalf("merged extents flushed as %d writes, want 1", st.FlushWrites)
	}
}

// TestWriteBackReadYourWrites: the writing handle reads its own
// buffered bytes (overlaid on backend content), sees the virtual size
// in Stat, and a second handle opened later sees flushed state (the
// Open barrier).
func TestWriteBackReadYourWrites(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	mustWrite(t, f, "/f", "0123456789")
	h := openWB(t, f, "/f", abi.O_RDWR)
	pwrite(t, h, 4, "XY")
	pwrite(t, h, 10, "tail") // extends past backend EOF
	var got []byte
	h.Pread(0, 64, func(b []byte, err abi.Errno) { got = b })
	if string(got) != "0123XY6789tail" {
		t.Fatalf("read-your-writes: %q", got)
	}
	var st abi.Stat
	h.Stat(func(s abi.Stat, _ abi.Errno) { st = s })
	if st.Size != 14 {
		t.Fatalf("virtual size %d, want 14", st.Size)
	}
	// FS.Stat (the walker path) must agree while the bytes are buffered.
	var pst abi.Stat
	f.Stat("/f", func(s abi.Stat, _ abi.Errno) { pst = s })
	if pst.Size != 14 {
		t.Fatalf("FS.Stat size %d, want 14", pst.Size)
	}
	// A second handle triggers the open barrier and reads flushed bytes.
	if got := mustRead(t, f, "/f"); got != "0123XY6789tail" {
		t.Fatalf("second handle read %q", got)
	}
	closeH(t, h)
}

// TestStatAfterFlushNotPoisoned: a stat taken while the file is dirty
// must not plant a pre-flush dentry that outlives the flush — stats
// after fsync report the flushed size and mtime.
func TestStatAfterFlushNotPoisoned(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/p", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "eleven char")
	var mid abi.Stat
	f.Stat("/p", func(s abi.Stat, _ abi.Errno) { mid = s }) // caches a dentry while dirty
	if mid.Size != 11 {
		t.Fatalf("mid-dirty stat size %d, want 11", mid.Size)
	}
	h.(Syncer).Sync(func(err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("fsync: %v", err)
		}
	})
	var after abi.Stat
	f.Stat("/p", func(s abi.Stat, _ abi.Errno) { after = s })
	if after.Size != 11 {
		t.Fatalf("post-flush stat size %d, want 11 (stale dentry survived the flush)", after.Size)
	}
	closeH(t, h)
}

// TestWriteBackSparseHole: a buffered extent far beyond the backend EOF
// reads back as zeros in the hole — a sequential reader walks through
// it instead of hitting a premature EOF, identically with write-back on
// and off.
func TestWriteBackSparseHole(t *testing.T) {
	run := func(writeBack bool) (first []byte, size int64) {
		mem := NewMemFS(now)
		f := NewFileSystem(mem, func() int64 { return clock })
		f.SetFeatures(Features{NoWriteBack: !writeBack})
		h := openWB(t, f, "/sparse", abi.O_RDWR|abi.O_CREAT)
		pwrite(t, h, 8192, "tail")
		h.Pread(0, 4096, func(b []byte, err abi.Errno) {
			if err != abi.OK {
				t.Fatalf("read hole: %v", err)
			}
			first = b
		})
		var st abi.Stat
		h.Stat(func(s abi.Stat, _ abi.Errno) { st = s })
		closeH(t, h)
		return first, st.Size
	}
	onB, onSize := run(true)
	offB, offSize := run(false)
	if onSize != 8196 || offSize != 8196 {
		t.Fatalf("sizes: on=%d off=%d, want 8196", onSize, offSize)
	}
	if len(onB) != len(offB) {
		t.Fatalf("hole read: %d bytes with write-back, %d without", len(onB), len(offB))
	}
	for i, b := range onB {
		if b != 0 || offB[i] != 0 {
			t.Fatalf("hole byte %d nonzero", i)
		}
	}
}

// TestWriteBackCrossFdReadBarrier: a reader whose handle predates the
// writer still observes completed writes — its read flushes the dirty
// extents first (POSIX read-after-write across descriptors).
func TestWriteBackCrossFdReadBarrier(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
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

// TestWriteBackStaleFdBypasses: once another operation bumps the path's
// generation (unlink), the old handle writes through its own backend
// handle — to the unlinked file — and can never buffer bytes for the
// file the name now names.
func TestWriteBackStaleFdBypasses(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	mustWrite(t, f, "/f", "old")
	h := openWB(t, f, "/f", abi.O_WRONLY)
	pwrite(t, h, 3, "+buffered") // buffered against the old file

	var uerr abi.Errno = -1
	f.Unlink("/f", func(err abi.Errno) { uerr = err }) // flushes, then whiteouts
	if uerr != abi.OK {
		t.Fatalf("unlink: %v", uerr)
	}
	mustWrite(t, f, "/f", "NEW") // a different file under the same name

	pwrite(t, h, 0, "zzz") // stale: must not touch the new /f
	closeH(t, h)
	if got := mustRead(t, f, "/f"); got != "NEW" {
		t.Fatalf("stale fd polluted the new file: %q", got)
	}
	if st := f.CacheStats(); st.DirtyBytes != 0 {
		t.Fatalf("dirty bytes leaked: %d", st.DirtyBytes)
	}
}

// TestWriteBackRenameCarriesBytes: buffered bytes written before a
// rename land in the file (now under its new name), not in limbo and
// not in a recreation of the old name.
func TestWriteBackRenameCarriesBytes(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/a", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "payload")
	var rerr abi.Errno = -1
	f.Rename("/a", "/b", func(err abi.Errno) { rerr = err })
	if rerr != abi.OK {
		t.Fatalf("rename: %v", rerr)
	}
	closeH(t, h)
	if got := mustRead(t, f, "/b"); got != "payload" {
		t.Fatalf("renamed file content %q", got)
	}
}

// TestFlushOnUnmount: Mount flushes buffered state before dropping the
// caches — nothing is lost when the namespace changes.
func TestFlushOnUnmount(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	h := openWB(t, f, "/keep", abi.O_WRONLY|abi.O_CREAT)
	pwrite(t, h, 0, "survives")
	f.Mount("/mnt", NewMemFS(now)) // FlushCaches → flush-on-unmount
	if got := backendContent(t, mem, "/keep"); got != "survives" {
		t.Fatalf("mount dropped buffered bytes: %q", got)
	}
	closeH(t, h)
}

// BenchmarkWriteBack measures the pdflatex-style append workload —
// many tiny sequential writes to one log file, then close — under
// write-back vs write-through. Reported metrics: backend write calls
// per workload (the coalescing win) and MB/s through the VFS.
func BenchmarkWriteBack(b *testing.B) {
	const writes = 1000
	line := []byte("pdflatex: Overfull \\hbox (badness 10000) in paragraph\n")
	for _, cfg := range []struct {
		name string
		wb   bool
	}{
		{"write-back", true},
		{"write-through", false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			mem := NewMemFS(now)
			f := NewFileSystem(mem, func() int64 { return clock })
			f.SetFeatures(Features{NoWriteBack: !cfg.wb})
			b.SetBytes(int64(writes * len(line)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path := fmt.Sprintf("/log%d", i)
				var h FileHandle
				f.Open(path, abi.O_WRONLY|abi.O_CREAT, 0o644, func(fh FileHandle, err abi.Errno) {
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
			b.StopTimer()
			b.ReportMetric(float64(mem.WriteOps)/float64(b.N), "backendwrites/op")
		})
	}
}

// TestWriteBackDifferentialOnOff: a mixed workload (appends, overwrite,
// truncate, reopen, readback) is byte-identical with write-back on and
// off.
func TestWriteBackDifferentialOnOff(t *testing.T) {
	run := func(writeBack bool) string {
		mem := NewMemFS(now)
		f := NewFileSystem(mem, func() int64 { return clock })
		f.SetFeatures(Features{NoWriteBack: !writeBack})
		h := openWB(t, f, "/w", abi.O_WRONLY|abi.O_CREAT)
		off := int64(0)
		for i := 0; i < 40; i++ {
			s := fmt.Sprintf("%03d;", i)
			pwrite(t, h, off, s)
			off += int64(len(s))
		}
		pwrite(t, h, 10, "OVERWRITE!")
		var terr abi.Errno = -1
		h.Truncate(100, func(err abi.Errno) { terr = err })
		if terr != abi.OK {
			t.Fatalf("truncate: %v", terr)
		}
		pwrite(t, h, 100, "tail")
		closeH(t, h)
		a := mustRead(t, f, "/w")
		mustWrite(t, f, "/w2", "x")
		b := mustRead(t, f, "/w2")
		return a + "|" + b
	}
	on, off := run(true), run(false)
	if on != off {
		t.Fatalf("write-back on/off diverge:\non:  %q\noff: %q", on, off)
	}
}
