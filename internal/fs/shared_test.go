package fs

import (
	"bytes"
	"testing"

	"repro/internal/abi"
)

// openRW opens p read-write (no truncation) on a memfs-backed f.
func openRW(t *testing.T, f *FileSystem, p string) FileHandle {
	t.Helper()
	var h FileHandle
	f.Open(p, abi.O_RDWR, 0, func(fh FileHandle, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("open %s: %v", p, err)
		}
		h = fh
	})
	return h
}

func closeOK(t *testing.T, h FileHandle) {
	t.Helper()
	h.Close(func(err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("close: %v", err)
		}
	})
}

// TestWriteFileSharedCopyOnWrite adopts one slice into two memfs files
// and checks that every in-place write path copies the file first, so
// neither the slice nor the other file ever changes — with write-back
// buffering, with write-through, and with the caches off.
func TestWriteFileSharedCopyOnWrite(t *testing.T) {
	for _, ft := range []Features{{}, {NoWriteBack: true}, {NoCaches: true}} {
		mem := NewMemFS(now)
		f := NewFileSystem(mem, func() int64 { return clock })
		f.SetFeatures(ft)
		orig := []byte("0123456789abcdef")
		data := append([]byte(nil), orig...)
		adopt := func(p string) {
			t.Helper()
			f.WriteFileShared(p, data, 0o755, func(err abi.Errno) {
				if err != abi.OK {
					t.Fatalf("%+v: WriteFileShared %s: %v", ft, p, err)
				}
			})
			if n := mem.lookup(p); !n.shared || &n.data[0] != &data[0] {
				t.Fatalf("%+v: %s was copied, not adopted", ft, p)
			}
		}
		check := func(what, want string) {
			t.Helper()
			if got := mustRead(t, f, "/a"); got != want {
				t.Errorf("%+v: %s: /a = %q, want %q", ft, what, got, want)
			}
			if got := mustRead(t, f, "/b"); got != string(orig) {
				t.Errorf("%+v: %s: other file changed to %q", ft, what, got)
			}
			if !bytes.Equal(data, orig) {
				t.Errorf("%+v: %s: shared slice changed to %q", ft, what, data)
			}
			if mem.lookup("/a").shared {
				t.Errorf("%+v: %s: written file still marked shared", ft, what)
			}
		}
		adopt("/a")
		adopt("/b")
		mustRead(t, f, "/a") // warm the page cache: the write must drop it

		h := openRW(t, f, "/a")
		h.Pwrite(2, []byte("XY"), func(int, abi.Errno) {})
		closeOK(t, h)
		check("Pwrite", "01XY456789abcdef")

		adopt("/a")
		h = openRW(t, f, "/a")
		h.Pwritev(4, [][]byte{[]byte("P"), []byte("Q")}, func(int, abi.Errno) {})
		closeOK(t, h)
		check("Pwritev", "0123PQ6789abcdef")

		adopt("/a")
		h = openRW(t, f, "/a")
		h.Truncate(6, func(abi.Errno) {})
		if !mem.lookup("/a").shared {
			t.Errorf("%+v: a shrinking truncate dropped the shared alias", ft)
		}
		h.Pwrite(0, []byte("T"), func(int, abi.Errno) {})
		closeOK(t, h)
		check("Truncate+Pwrite", "T12345")

		adopt("/a")
		h = openRW(t, f, "/a")
		h.Pwrite(int64(len(orig)), []byte("!"), func(int, abi.Errno) {})
		closeOK(t, h)
		check("growth", string(orig)+"!")
	}
}

// TestWriteFileCopies: plain WriteFile never aliases the caller's bytes.
func TestWriteFileCopies(t *testing.T) {
	f := newFS()
	buf := []byte("mine")
	mustOK := func(err abi.Errno) {
		if err != abi.OK {
			t.Fatal(err)
		}
	}
	f.WriteFile("/c", buf, 0o644, mustOK)
	copy(buf, "XXXX")
	if got := mustRead(t, f, "/c"); got != "mine" {
		t.Fatalf("WriteFile aliased its input: /c = %q", got)
	}
}
