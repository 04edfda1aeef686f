package fs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/abi"
)

// Page-cache read tests: borrowed views on a warm vectored read, and the
// adaptive readahead window.

func openPaged(t *testing.T, f *FileSystem, p string) *pagedHandle {
	t.Helper()
	var out *pagedHandle
	f.Open(p, abi.O_RDONLY, 0, func(fh FileHandle, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("open %s: %v", p, err)
		}
		ph, ok := fh.(*pagedHandle)
		if !ok {
			t.Fatalf("open %s: got %T, want *pagedHandle", p, fh)
		}
		out = ph
	})
	return out
}

func warmRead(t *testing.T, h FileHandle, off int64, n int) []byte {
	t.Helper()
	var out []byte
	h.Pread(off, n, func(b []byte, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("pread: %v", err)
		}
		out = b
	})
	return out
}

func patterned(n int) string {
	var sb strings.Builder
	for sb.Len() < n {
		fmt.Fprintf(&sb, "block-%08d|", sb.Len())
	}
	return sb.String()[:n]
}

// TestPreadvWarmHitViewsArena: a warm read of a current handle returns
// one view per arena page it spans without touching the backend; a cold
// range falls back to one segment the caller owns.
func TestPreadvWarmHitViewsArena(t *testing.T) {
	content := patterned(2*PageSize + 700) // EOF inside a short page
	f, counted := newCountedFS(t, content)
	h := openPaged(t, f, "/mnt/a/b/file.txt")
	preadv := func(off int64, n int) (segs [][]byte) {
		h.Preadv(off, []int{n}, func(s [][]byte, err abi.Errno) {
			if err != abi.OK {
				t.Fatalf("preadv: %v", err)
			}
			segs = s
		})
		return segs
	}
	if segs := preadv(0, 100); len(segs) != 1 || string(segs[0]) != content[:100] {
		t.Fatalf("cold preadv = %q", segs)
	}
	warmRead(t, h, 0, len(content))
	opens := counted.opens
	segs := preadv(100, 2*PageSize)
	if counted.opens != opens {
		t.Fatalf("warm preadv touched the backend")
	}
	if len(segs) != 3 || string(bytes.Join(segs, nil)) != content[100:100+2*PageSize] {
		t.Fatalf("warm preadv: %d segments, bytes differ", len(segs))
	}
	if segs := preadv(int64(len(content)), 4096); len(segs) != 0 {
		t.Fatalf("preadv at EOF returned %d segments", len(segs))
	}
}

// recBackend wraps a read-only backend and records the size of every
// backend Pread — the observable the adaptive-readahead tests assert on.
type recBackend struct {
	Backend
	reads *[]int
}

func (b *recBackend) ReadOnly() bool { return true }

func (b *recBackend) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	b.Backend.Open(p, flags, mode, func(h FileHandle, err abi.Errno) {
		if err == abi.OK {
			h = &recHandle{FileHandle: h, reads: b.reads}
		}
		cb(h, err)
	})
}

type recHandle struct {
	FileHandle
	reads *[]int
}

func (h *recHandle) Pread(off int64, n int, cb func([]byte, abi.Errno)) {
	*h.reads = append(*h.reads, n)
	h.FileHandle.Pread(off, n, cb)
}

// TestAdaptiveReadaheadDoublesOnStreakResetsOnSeek: sequential reads
// double the readahead window (so backend transfer units grow), and a
// seek resets it to the base.
func TestAdaptiveReadaheadDoublesOnStreakResetsOnSeek(t *testing.T) {
	const pages = 256
	img := NewMemFS(now)
	stage := NewFileSystem(img, func() int64 { return clock })
	mustWrite(t, stage, "/big", patterned(pages*PageSize))
	img.SetReadOnly()
	var reads []int
	f := newFS()
	f.Mount("/rec", &recBackend{Backend: img, reads: &reads})
	f.SetReadahead(2)

	h := openPaged(t, f, "/rec/big")
	// Sequential streak: page-at-a-time reads.
	for off := int64(0); off < 64*PageSize; off += PageSize {
		warmRead(t, h, off, PageSize)
	}
	maxSeen := 0
	for _, n := range reads {
		if n > maxSeen {
			maxSeen = n
		}
	}
	if maxSeen < 16*PageSize {
		t.Fatalf("window never grew: max backend read %d bytes (reads %v)", maxSeen, reads)
	}
	if h.raWindow <= 2 {
		t.Fatalf("raWindow = %d after a long streak", h.raWindow)
	}

	// Seek away: the window resets to the base, and the next streak's
	// first readahead is small again.
	reads = reads[:0]
	warmRead(t, h, 200*PageSize, PageSize) // non-sequential
	if h.raWindow != 2 {
		t.Fatalf("raWindow = %d after seek, want base 2", h.raWindow)
	}
	warmRead(t, h, 201*PageSize, PageSize) // streak restarts
	for _, n := range reads {
		if n > 8*PageSize {
			t.Fatalf("post-seek backend read %d bytes — window did not reset (reads %v)", n, reads)
		}
	}
}

// TestRangeReadaheadWindowGrowth: with httpfs byte-range fetches (the
// 206 path), the adaptive window directly sizes the transfer units — a
// sequential stream's Range requests grow with the streak.
func TestRangeReadaheadWindowGrowth(t *testing.T) {
	big := []byte(patterned(128 * PageSize))
	hfs, ff := newRangeHTTPFS(t, map[string][]byte{"/big.bin": big})
	f := newFS()
	f.Mount("/http", hfs)
	f.SetReadahead(2)

	h := openPaged(t, f, "/http/big.bin")
	var got []byte
	for off := int64(0); off < 64*PageSize; off += PageSize {
		got = append(got, warmRead(t, h, off, PageSize)...)
	}
	if !bytes.Equal(got, big[:64*PageSize]) {
		t.Fatalf("sequential ranged read corrupted data")
	}
	if len(ff.whole) != 0 {
		t.Fatalf("whole-body fetches on the range path: %v", ff.whole)
	}
	first, maxN := int64(-1), int64(0)
	for _, r := range ff.ranges {
		var n int64
		fmt.Sscanf(r[strings.LastIndexByte(r, '+')+1:], "%d", &n)
		if first < 0 {
			first = n
		}
		if n > maxN {
			maxN = n
		}
	}
	if first < 0 {
		t.Fatalf("no Range fetches recorded")
	}
	if maxN < 8*int64(PageSize) || maxN <= first {
		t.Fatalf("Range windows did not grow: first=%d max=%d (%v)", first, maxN, ff.ranges)
	}
}
