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

// TestReadFileSharedCopyOnWrite checks the read-side twin of
// WriteFileShared. On memfs, ReadFileShared returns the node's own bytes,
// and every later in-place write path copies the file first, so a slice
// handed out earlier never changes: for a file adopted by WriteFileShared
// and one written by plain WriteFile, with write-back buffering, with
// write-through, and with the caches off. Dirty write-back extents flush
// before the bytes are handed out, and backends that cannot alias a file
// return a fresh copy, exactly as ReadFile.
func TestReadFileSharedCopyOnWrite(t *testing.T) {
	t.Run("memfs", testReadSharedMemFS)
	t.Run("write-back", func(t *testing.T) {
		f := newFS()
		mustWrite(t, f, "/x", "0123456789")
		h := openRW(t, f, "/x")
		h.Pwrite(3, []byte("abc"), func(int, abi.Errno) {})
		if f.pc.dirty["/x"] == nil {
			t.Fatal("the write was not buffered as a dirty extent")
		}
		if got := string(mustReadShared(t, f, "/x")); got != "012abc6789" {
			t.Fatalf("ReadFileShared = %q, want the flushed bytes", got)
		}
		closeOK(t, h)
	})
	t.Run("other backends", func(t *testing.T) {
		// The overlay reads through the page cache; localStorage's quota
		// handle wraps its memfs handle.
		lower := NewMemFS(now)
		mustWrite(t, NewFileSystem(lower, func() int64 { return clock }), "/low", "lower bytes")
		lower.SetReadOnly()
		ov := NewFileSystem(NewOverlayFS(NewMemFS(now), lower), func() int64 { return clock })
		mustWrite(t, ov, "/up", "upper bytes")
		ls := NewFileSystem(NewLocalStorageFS(now, 0), func() int64 { return clock })
		mustWrite(t, ls, "/ls", "local bytes")
		for _, c := range []struct {
			f    *FileSystem
			p    string
			want string
		}{{ov, "/low", "lower bytes"}, {ov, "/up", "upper bytes"}, {ls, "/ls", "local bytes"}} {
			b := mustReadShared(t, c.f, c.p)
			if string(b) != c.want {
				t.Fatalf("ReadFileShared(%s) = %q, want %q", c.p, b, c.want)
			}
			copy(b, "XXXX")
			if got := mustRead(t, c.f, c.p); got != c.want {
				t.Errorf("%s: ReadFileShared aliased the file: now %q", c.p, got)
			}
		}
	})
}

func testReadSharedMemFS(t *testing.T) {
	const orig = "0123456789abcdef"
	for _, ft := range []Features{{}, {NoWriteBack: true}, {NoCaches: true}} {
		for _, adopted := range []bool{true, false} {
			mem := NewMemFS(now)
			f := NewFileSystem(mem, func() int64 { return clock })
			f.SetFeatures(ft)
			stage := func() {
				t.Helper()
				var err abi.Errno = -1
				if adopted {
					f.WriteFileShared("/x", []byte(orig), 0o755, func(e abi.Errno) { err = e })
				} else {
					f.WriteFile("/x", []byte(orig), 0o755, func(e abi.Errno) { err = e })
				}
				if err != abi.OK {
					t.Fatalf("%+v adopted=%v: stage: %v", ft, adopted, err)
				}
			}
			// read returns a shared slice that must alias the node.
			read := func() []byte {
				t.Helper()
				b := mustReadShared(t, f, "/x")
				if n := mem.lookup("/x"); !n.shared || len(b) == 0 || &n.data[0] != &b[0] || cap(b) != len(b) {
					t.Fatalf("%+v adopted=%v: ReadFileShared copied, or handed out spare capacity", ft, adopted)
				}
				return b
			}
			check := func(what string, b []byte, want string) {
				t.Helper()
				if string(b) != orig {
					t.Errorf("%+v adopted=%v: %s: shared slice changed to %q", ft, adopted, what, b)
				}
				if got := mustRead(t, f, "/x"); got != want {
					t.Errorf("%+v adopted=%v: %s: /x = %q, want %q", ft, adopted, what, got, want)
				}
			}

			stage()
			b := read()
			h := openRW(t, f, "/x")
			h.Pwrite(2, []byte("XY"), func(int, abi.Errno) {})
			closeOK(t, h)
			check("Pwrite", b, "01XY456789abcdef")

			stage()
			b = read()
			h = openRW(t, f, "/x")
			h.Pwritev(4, [][]byte{[]byte("P"), []byte("Q")}, func(int, abi.Errno) {})
			closeOK(t, h)
			check("Pwritev", b, "0123PQ6789abcdef")

			stage()
			b = read()
			h = openRW(t, f, "/x")
			h.Truncate(6, func(abi.Errno) {})
			h.Pwrite(0, []byte("T"), func(int, abi.Errno) {})
			closeOK(t, h)
			check("Truncate+Pwrite", b, "T12345")

			stage()
			b = read()
			mustWrite(t, f, "/x", "rewritten")
			check("WriteFile", b, "rewritten")
		}
	}
}

// mustReadShared reads p through ReadFileShared.
func mustReadShared(t *testing.T, f *FileSystem, p string) []byte {
	t.Helper()
	var data []byte
	var got abi.Errno = -1
	f.ReadFileShared(p, func(b []byte, err abi.Errno) { data, got = b, err })
	if got != abi.OK {
		t.Fatalf("ReadFileShared(%s): %v", p, got)
	}
	return data
}
