package core_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/posix"
	"repro/internal/rt"
)

// Zero-copy read path: copied-bytes guard, throughput guard + benchmark,
// and the lease-revocation differential across transports.

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
// page-cacheable AND mutable, which is what the revocation races need.
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

	// t-zcbench: one cold pass, then N warm whole-file reads (one big
	// read request per pass — one crossing on the grant path).
	posix.Register(&posix.Program{Name: "t-zcbench", Main: func(p posix.Proc) int {
		path := p.Args()[1]
		passes, _ := strconv.Atoi(p.Args()[2])
		st, err := p.Stat(path)
		if err != abi.OK {
			return 1
		}
		size := int(st.Size)
		fd, err := p.Open(path, abi.O_RDONLY, 0)
		if err != abi.OK {
			return 2
		}
		var sum, total int
		for i := 0; i <= passes; i++ { // pass 0 is the cold warm-up
			if _, err := p.Seek(fd, 0, abi.SEEK_SET); err != abi.OK {
				return 3
			}
			b, rerr := readN(p, fd, size)
			if rerr != abi.OK || len(b) != size {
				return 4
			}
			if i > 0 {
				sum = zcHash(sum, b)
				total += len(b)
			}
		}
		p.Close(fd)
		posix.Fprintf(p, abi.Stdout, "bench read=%d hash=%d\n", total, sum)
		return 0
	}})
}

// TestZeroCopyWarmReadZeroCopiedBytes is the acceptance guard: a warm
// cached read via the ring transport performs ZERO per-byte kernel
// copies — the whole file is served as page grants — and every lease is
// back by process exit.
func TestZeroCopyWarmReadZeroCopiedBytes(t *testing.T) {
	w := boot(t)
	content := zcPattern(1, 1<<20+100)
	mountRO(t, w, map[string][]byte{"/big.bin": content})
	w.install(t, "/usr/bin/t-zcread", "t-zcread", rt.EmSyncKind)

	code, cold, _ := w.run(t, "/usr/bin/t-zcread /ro/big.bin")
	if code != 0 {
		t.Fatalf("cold run exited %d", code)
	}
	if w.k.ReadCopiedBytes.Load() == 0 {
		t.Fatalf("cold run copied no bytes — miss path broken?")
	}
	copied, grants := w.k.ReadCopiedBytes.Load(), w.k.LeaseGrants.Load()

	code, warm, _ := w.run(t, "/usr/bin/t-zcread /ro/big.bin")
	if code != 0 {
		t.Fatalf("warm run exited %d", code)
	}
	if warm != cold {
		t.Fatalf("warm output %q differs from cold %q", warm, cold)
	}
	if d := w.k.ReadCopiedBytes.Load() - copied; d != 0 {
		t.Fatalf("warm cached read copied %d payload bytes, want 0 (grant path)", d)
	}
	if w.k.LeaseGrants.Load() == grants {
		t.Fatalf("warm run took no page leases — grant path unused")
	}
	if w.k.GrantedBytes.Load() < int64(len(content)) {
		t.Fatalf("GrantedBytes = %d, want >= %d", w.k.GrantedBytes.Load(), len(content))
	}
	if w.k.LeaseGrants.Load() != w.k.LeaseReturns.Load() {
		t.Fatalf("leases leaked: %d granted, %d returned", w.k.LeaseGrants.Load(), w.k.LeaseReturns.Load())
	}
	if pins := w.fs.CacheStats().PinnedPages; pins != 0 {
		t.Fatalf("%d pool pages still pinned after exit", pins)
	}
}

// zcBenchRun executes t-zcbench in a fresh world running ft and reports the bytes
// read warm and the virtual time the whole run took.
func zcBenchRun(t testing.TB, ft core.Features, passes int) (bytes int64, elapsed int64) {
	sizeBytes := int64(4<<20 + 100)
	w := boot(t)
	w.k.SetFeatures(ft)
	mountRO(t, w, map[string][]byte{"/big.bin": zcPattern(2, int(sizeBytes))})
	w.install(t, "/usr/bin/t-zcbench", "t-zcbench", rt.EmSyncKind)
	t0 := w.sim.Now()
	code, out, errOut := w.run(t, fmt.Sprintf("/usr/bin/t-zcbench /ro/big.bin %d", passes))
	if code != 0 {
		t.Fatalf("t-zcbench exited %d (%q %q)", code, out, errOut)
	}
	return sizeBytes * int64(passes), w.sim.Now() - t0
}

// TestZeroCopyWarmReadThroughput pins the acceptance bar: warm whole-
// file reads through the grant path are at least 2x faster (virtual
// time) than the same reads through the copy path.
func TestZeroCopyWarmReadThroughput(t *testing.T) {
	const passes = 100
	_, grantNs := zcBenchRun(t, core.Features{}, passes)
	_, copyNs := zcBenchRun(t, core.Features{NoZeroCopy: true}, passes)
	if copyNs < 2*grantNs {
		t.Fatalf("warm-read speedup %.2fx (grant %d ns, copy %d ns), want >= 2x",
			float64(copyNs)/float64(grantNs), grantNs, copyNs)
	}
}

// t-lease exercises every revocation race with leases outstanding:
// stale-fd bypass after unlink, truncate and rename under a lease, and a
// write-back flush overlapping leased pages. Output must be identical on
// every transport and write-back configuration.
func init() {
	posix.Register(&posix.Program{Name: "t-lease", Main: func(p posix.Proc) int {
		report := func(tag string, b []byte, err abi.Errno) {
			posix.Fprintf(p, abi.Stdout, "%s n=%d hash=%d err=%d\n", tag, len(b), zcHash(0, b), int(err))
		}
		// warmOpen opens path read-only and pre-reads n bytes so the
		// pages are resident: the reads that follow are served as page
		// grants on the ring transport — the leases the races need.
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

		// 1. unlink while leases are outstanding: the stale fd keeps
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
		// Seek the stale fd home (returns its leases) and re-read: still
		// the old file.
		if _, err := p.Seek(fdA, 0, abi.SEEK_SET); err != abi.OK {
			return 5
		}
		a3, err := readN(p, fdA, 16*1024)
		report("unlink.reseek", a3, err)
		p.Close(fdA)

		// 2. truncate while a lease is outstanding.
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

		// 3. rename while a lease is outstanding.
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

		// 4. write-back flush overlapping leased pages: take leases,
		// then write+fsync through another fd (dirty extents force the
		// leased pages to detach-and-freeze before coalescing), then
		// read the file fresh.
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
		p.Close(fdE) // returns the leases taken before the overlap
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

// TestLeaseRevocationAcrossTransports runs t-lease on the async, scalar
// and ring transports, each with write-back on and off: all six outputs
// must be byte-identical, the ring configurations must actually have
// taken leases, and no lease may survive the process.
func TestLeaseRevocationAcrossTransports(t *testing.T) {
	files := map[string][]byte{
		"/f": zcPattern(3, 64*1024),
		"/g": zcPattern(4, 48*1024),
		"/h": zcPattern(5, 48*1024),
		"/k": zcPattern(6, 64*1024),
	}
	outputs := map[string]string{}
	for _, v := range variants(transports, core.Features{NoWriteBack: true}) {
		w := v.boot(t)
		mountOverlay(t, w, files)
		w.install(t, "/usr/bin/t-lease", "t-lease", v.tr.kind())
		code, out, errOut := w.run(t, "/usr/bin/t-lease")
		if code != 0 {
			t.Fatalf("%s: exited %d (stdout %q stderr %q)", v, code, out, errOut)
		}
		outputs[v.String()] = out
		if v.tr == ring {
			if w.k.LeaseGrants.Load() == 0 {
				t.Errorf("%s: no leases taken — revocation races untested", v)
			}
			if w.k.LeaseGrants.Load() != w.k.LeaseReturns.Load() {
				t.Errorf("%s: leases leaked (%d granted, %d returned)",
					v, w.k.LeaseGrants.Load(), w.k.LeaseReturns.Load())
			}
		}
		if pins := w.fs.CacheStats().PinnedPages; pins != 0 {
			t.Errorf("%s: %d pages still pinned", v, pins)
		}
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

// BenchmarkZeroCopyRead reports warm-read throughput (virtual MB/s) of
// the grant path against the copy path — the headline number of the
// zero-copy refactor.
func BenchmarkZeroCopyRead(b *testing.B) {
	for _, cfg := range []struct {
		name string
		ft   core.Features
	}{
		{"grant", core.Features{}},
		{"copy", core.Features{NoZeroCopy: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var bytes, elapsed int64
			for i := 0; i < b.N; i++ {
				bt, el := zcBenchRun(b, cfg.ft, 32)
				bytes += bt
				elapsed += el
			}
			if elapsed > 0 {
				b.ReportMetric(float64(bytes)/(float64(elapsed)/1e9)/1e6, "virtMB/s")
			}
		})
	}
}
