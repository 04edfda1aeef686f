package core_test

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/fs"
	"repro/internal/posix"
)

// Page-cache coherence across transports: reads of cached pages that
// race unlink, truncate, rename and writes, and warm reads whose bytes
// must be copied before the cached pages are recycled.

// zcPattern fills n bytes deterministically, seeded by tag.
func zcPattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(tag)*31 + i*7)
	}
	return b
}

// mountRO stages files on a read-only (page-cacheable) memfs at /ro.
func mountRO(t testing.TB, w *world, files map[string][]byte) {
	clock := func() int64 { return w.sim.Now() }
	img := fs.NewMemFS(clock)
	stage := fs.NewFileSystem(img, clock)
	for p, data := range files {
		var werr abi.Errno = -1
		stage.WriteFile(p, data, 0o644, func(err abi.Errno) { werr = err })
		if werr != abi.OK {
			t.Fatalf("stage %s: %v", p, werr)
		}
	}
	img.SetReadOnly()
	w.fs.Mount("/ro", img)
}

// mountOverlay stages files on the lower layer of an overlay at /ov —
// page-cacheable AND mutable, which is what the coherence races need.
func mountOverlay(t testing.TB, w *world, files map[string][]byte) {
	clock := func() int64 { return w.sim.Now() }
	lower := fs.NewMemFS(clock)
	stage := fs.NewFileSystem(lower, clock)
	for p, data := range files {
		var werr abi.Errno = -1
		stage.WriteFile(p, data, 0o644, func(err abi.Errno) { werr = err })
		if werr != abi.OK {
			t.Fatalf("stage %s: %v", p, werr)
		}
	}
	lower.SetReadOnly()
	upper := fs.NewMemFS(clock)
	w.fs.Mount("/ov", fs.NewOverlayFS(upper, lower))
}

func zcHash(sum int, b []byte) int {
	for _, c := range b {
		sum = (sum*131 + int(c)) % 1000003
	}
	return sum
}

// readN accumulates exactly n bytes (or to EOF) so short reads cannot
// make transports diverge.
func readN(p posix.Proc, fd, n int) ([]byte, abi.Errno) {
	var out []byte
	for len(out) < n {
		b, err := p.Read(fd, n-len(out))
		if err != abi.OK {
			return out, err
		}
		if len(b) == 0 {
			break
		}
		out = append(out, b...)
	}
	return out, abi.OK
}

func init() {
	// t-zcread: sequential chunked read of a file, hash printed.
	posix.Register(&posix.Program{Name: "t-zcread", Main: func(p posix.Proc) int {
		path := p.Args()[1]
		fd, err := p.Open(path, abi.O_RDONLY, 0)
		if err != abi.OK {
			return 1
		}
		total, sum := 0, 0
		for {
			b, rerr := p.Read(fd, 64*1024)
			if rerr != abi.OK {
				return 2
			}
			if len(b) == 0 {
				break
			}
			sum = zcHash(sum, b)
			total += len(b)
		}
		p.Close(fd)
		posix.Fprintf(p, abi.Stdout, "read=%d hash=%d\n", total, sum)
		return 0
	}})
}

// t-lease exercises every coherence race with warm cached pages: stale-fd
// bypass after unlink, truncate and rename of a file being read, and a
// write plus fsync overlapping cached pages. Output must be identical on
// every transport.
func init() {
	posix.Register(&posix.Program{Name: "t-lease", Main: func(p posix.Proc) int {
		report := func(tag string, b []byte, err abi.Errno) {
			posix.Fprintf(p, abi.Stdout, "%s n=%d hash=%d err=%d\n", tag, len(b), zcHash(0, b), int(err))
		}
		// warmOpen opens path read-only and pre-reads n bytes so the
		// pages are resident: the reads that follow are warm cache hits,
		// which the races need.
		warmOpen := func(path string, n int) (int, abi.Errno) {
			fd, err := p.Open(path, abi.O_RDONLY, 0)
			if err != abi.OK {
				return -1, err
			}
			if _, err := readN(p, fd, n); err != abi.OK {
				return -1, err
			}
			if _, err := p.Seek(fd, 0, abi.SEEK_SET); err != abi.OK {
				return -1, err
			}
			return fd, abi.OK
		}

		// 1. unlink while the file is being read: the stale fd keeps
		// reading the OLD file through its own backend handle.
		fdA, err := warmOpen("/ov/f", 48*1024)
		if err != abi.OK {
			return 1
		}
		a1, err := readN(p, fdA, 32*1024)
		report("unlink.before", a1, err)
		if err := p.Unlink("/ov/f"); err != abi.OK {
			return 2
		}
		a2, err := readN(p, fdA, 16*1024)
		report("unlink.stale", a2, err)
		// Recreate the name with different bytes; a fresh fd sees them.
		if err := posix.WriteFile(p, "/ov/f", []byte("reborn contents of /ov/f"), 0o644); err != abi.OK {
			return 3
		}
		fdB, err := p.Open("/ov/f", abi.O_RDONLY, 0)
		if err != abi.OK {
			return 4
		}
		b1, err := readN(p, fdB, 64*1024)
		report("unlink.fresh", b1, err)
		p.Close(fdB)
		// Seek the stale fd home and re-read: still the old file.
		if _, err := p.Seek(fdA, 0, abi.SEEK_SET); err != abi.OK {
			return 5
		}
		a3, err := readN(p, fdA, 16*1024)
		report("unlink.reseek", a3, err)
		p.Close(fdA)

		// 2. truncate while the file is being read.
		fdC, err := warmOpen("/ov/g", 16*1024)
		if err != abi.OK {
			return 6
		}
		c1, err := readN(p, fdC, 16*1024)
		report("trunc.before", c1, err)
		fdW, err := p.Open("/ov/g", abi.O_WRONLY, 0)
		if err != abi.OK {
			return 7
		}
		if err := p.Ftruncate(fdW, 100); err != abi.OK {
			return 8
		}
		p.Close(fdW)
		c2, err := readN(p, fdC, 16*1024)
		report("trunc.stale", c2, err)
		p.Close(fdC)
		fdC2, err := p.Open("/ov/g", abi.O_RDONLY, 0)
		if err != abi.OK {
			return 9
		}
		c3, err := readN(p, fdC2, 64*1024)
		report("trunc.fresh", c3, err)
		p.Close(fdC2)

		// 3. rename while the file is being read.
		fdD, err := warmOpen("/ov/h", 16*1024)
		if err != abi.OK {
			return 10
		}
		d1, err := readN(p, fdD, 16*1024)
		report("rename.before", d1, err)
		if err := p.Rename("/ov/h", "/ov/h2"); err != abi.OK {
			return 11
		}
		d2, err := readN(p, fdD, 16*1024)
		report("rename.stale", d2, err)
		p.Close(fdD)
		st, serr := p.Stat("/ov/h2")
		posix.Fprintf(p, abi.Stdout, "rename.dst size=%d err=%d\n", st.Size, int(serr))

		// 4. a write overlapping cached pages: warm the pages, then
		// write+fsync through another fd (the write drops the cached
		// pages), then read the file fresh.
		fdE, err := warmOpen("/ov/k", 32*1024)
		if err != abi.OK {
			return 12
		}
		e1, err := readN(p, fdE, 32*1024)
		report("flush.before", e1, err)
		fdF, err := p.Open("/ov/k", abi.O_WRONLY, 0)
		if err != abi.OK {
			return 13
		}
		if _, err := p.Pwrite(fdF, []byte("PATCHED-WHILE-LEASED"), 4096); err != abi.OK {
			return 14
		}
		if err := p.Fsync(fdF); err != abi.OK {
			return 15
		}
		p.Close(fdF)
		p.Close(fdE)
		fdE2, err := p.Open("/ov/k", abi.O_RDONLY, 0)
		if err != abi.OK {
			return 16
		}
		e2, err := readN(p, fdE2, 64*1024)
		report("flush.fresh", e2, err)
		p.Close(fdE2)
		return 0
	}})
}

// TestCacheCoherenceAcrossTransports runs t-lease on the async and ring
// transports: both outputs must be byte-identical.
func TestCacheCoherenceAcrossTransports(t *testing.T) {
	files := map[string][]byte{
		"/f": zcPattern(3, 64*1024),
		"/g": zcPattern(4, 48*1024),
		"/h": zcPattern(5, 48*1024),
		"/k": zcPattern(6, 64*1024),
	}
	outputs := map[string]string{}
	for _, v := range variants(transports) {
		w := v.boot(t)
		mountOverlay(t, w, files)
		w.install(t, "/usr/bin/t-lease", "t-lease", v.tr.kind())
		code, out, errOut := w.run(t, "/usr/bin/t-lease")
		if code != 0 {
			t.Fatalf("%s: exited %d (stdout %q stderr %q)", v, code, out, errOut)
		}
		outputs[v.String()] = out
	}
	var want string
	for _, out := range outputs {
		want = out
		break
	}
	for name, out := range outputs {
		if out != want {
			t.Errorf("%s diverges:\n%q\nvs\n%q", name, out, want)
		}
	}
}

// t-warmcopy reads /ov/a warm with read (first a 100-byte read inside
// one page, then the rest) and with readv, then writes over every buffer
// those reads returned and reads /ov/a warm again. A buffer that still
// aliased a cached page would have written into the cache, and the
// second pass would return other bytes.
func init() {
	posix.Register(&posix.Program{Name: "t-warmcopy", Main: func(p posix.Proc) int {
		st, err := p.Stat("/ov/a")
		if err != abi.OK {
			return 1
		}
		size := int(st.Size)
		fd, err := p.Open("/ov/a", abi.O_RDONLY, 0)
		if err != abi.OK {
			return 2
		}
		if b, err := readN(p, fd, size); err != abi.OK || len(b) != size {
			return 3 // the cold pass caches every page
		}
		warm := func() (reads, segs [][]byte, code int) {
			if _, err := p.Seek(fd, 0, abi.SEEK_SET); err != abi.OK {
				return nil, nil, 4
			}
			for _, n := range []int{100, size - 100} {
				b, err := p.Read(fd, n)
				if err != abi.OK || len(b) != n {
					return nil, nil, 5
				}
				reads = append(reads, b)
			}
			if _, err := p.Seek(fd, 0, abi.SEEK_SET); err != abi.OK {
				return nil, nil, 6
			}
			segs, err := p.Readv(fd, []int{size / 2, size - size/2})
			if err != abi.OK {
				return nil, nil, 7
			}
			return reads, segs, 0
		}
		reads, segs, code := warm()
		if code != 0 {
			return code
		}
		for _, b := range append(reads, segs...) {
			for i := range b {
				b[i] = 0xFF
			}
		}
		if reads, segs, code = warm(); code != 0 {
			return code + 10
		}
		p.Close(fd)

		hash := func(bufs [][]byte) (n, sum int) {
			for _, b := range bufs {
				sum = zcHash(sum, b)
				n += len(b)
			}
			return n, sum
		}
		rn, rsum := hash(reads)
		vn, vsum := hash(segs)
		posix.Fprintf(p, abi.Stdout, "read n=%d hash=%d\nreadv n=%d hash=%d\n", rn, rsum, vn, vsum)
		return 0
	}})
}

// TestWarmReadCopiesBeforeReturn: on every transport, the buffers a warm
// read returns are the caller's own — writing over them leaves the
// cached pages, and so the next warm read, with the file's bytes.
func TestWarmReadCopiesBeforeReturn(t *testing.T) {
	orig := zcPattern(7, 48*1024+100)
	h := zcHash(0, orig)
	want := fmt.Sprintf("read n=%d hash=%d\nreadv n=%d hash=%d\n", len(orig), h, len(orig), h)
	for _, v := range variants(transports) {
		w := v.boot(t)
		mountOverlay(t, w, map[string][]byte{"/a": orig})
		w.install(t, "/usr/bin/t-warmcopy", "t-warmcopy", v.tr.kind())
		hits := w.fs.CacheStats().PageHits
		code, out, errOut := w.run(t, "/usr/bin/t-warmcopy")
		if code != 0 || out != want {
			t.Errorf("%s: exit %d, output %q (stderr %q), want %q", v, code, out, errOut, want)
		}
		if w.fs.CacheStats().PageHits == hits {
			t.Errorf("%s: no warm page-cache hits", v)
		}
	}
}
