package browsix_test

import (
	"archive/zip"
	"bytes"
	"fmt"
	"testing"

	browsix "repro"
	"repro/internal/fs"
)

// ---------------------------------------------------------------------------
// Content-addressed dedup at the system level: the same immutable base
// tree mounted into every tenant must cost ONE physical copy fleet-wide,
// while remaining invisible to program behaviour — byte-identical output
// and bit-identical virtual clocks with the tier on, off, or racing.
// ---------------------------------------------------------------------------

const (
	dedupTreeFiles    = 48
	dedupTreeFileSize = 40*1024 + 100 // 3 pages each (last one partial)
)

// dedupTreeZip builds the shared base image: a deterministic zip archive
// (the same bytes every run) that each tenant mounts read-only.
func dedupTreeZip(t testing.TB, nfiles, size int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for i := 0; i < nfiles; i++ {
		w, err := zw.Create(fmt.Sprintf("tree/f%03d.dat", i))
		if err != nil {
			t.Fatalf("zip create: %v", err)
		}
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i*131 + j*7 + j>>10)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatalf("zip write: %v", err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("zip close: %v", err)
	}
	return buf.Bytes()
}

// mountShare mounts the archive read-only at /share. Every caller gets
// its own ZipFS index over the SAME archive bytes, so identical pages
// faulted by different tenants dedup to one page.
func mountShare(t testing.TB, in *browsix.Instance, archive []byte) {
	t.Helper()
	zfs, err := fs.NewZipFS(archive)
	if err != nil {
		t.Fatalf("zipfs: %v", err)
	}
	in.VFS.Mount("/share", zfs)
}

func dedupTreePath(i int) string {
	return fmt.Sprintf("share/tree/f%03d.dat", i%dedupTreeFiles)
}

// TestDedupDifferential is the on/off ablation across all three syscall
// transports: disabling the content-addressed tier must change NOTHING
// observable — stdout, stderr, exit codes, and the virtual clock are
// bit-identical; only the physical footprint moves. This pins the
// design invariant that the dedup lookup happens after the backend read
// (hits and misses cost identical virtual time) and that quota is
// charged logically per reference.
func TestDedupDifferential(t *testing.T) {
	archive := dedupTreeZip(t, 12, dedupTreeFileSize)
	// repArchive holds a file of IDENTICAL pages: within one descriptor
	// the kernel reads the same shared slot repeatedly.
	var repBuf bytes.Buffer
	zw := zip.NewWriter(&repBuf)
	w, err := zw.Create("rep.dat")
	if err != nil {
		t.Fatalf("zip create: %v", err)
	}
	if _, err := w.Write(bytes.Repeat(bytes.Repeat([]byte{0x5a}, fs.PageSize), 4)); err != nil {
		t.Fatalf("zip write: %v", err)
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("zip close: %v", err)
	}
	repArchive := repBuf.Bytes()
	cmds := []string{
		"sha1sum /share/tree/f000.dat /share/tree/f007.dat",
		"cat /share/tree/f001.dat | wc -c",
		"cat /share/tree/f002.dat /share/tree/f002.dat | wc -c", // warm reread
		"cat /rep/rep.dat | wc -c",                              // same slot granted 4x on one fd
		"sha1sum /rep/rep.dat",
		"ls /share/tree",
	}
	type result struct {
		outs  []string
		clock int64
	}
	run := func(v variant) result {
		name, in := v.String(), v.boot(browsix.Config{})
		mountShare(t, in, archive)
		rfs, zerr := fs.NewZipFS(repArchive)
		if zerr != nil {
			t.Fatalf("rep zipfs: %v", zerr)
		}
		in.VFS.Mount("/rep", rfs)
		var r result
		for _, cmd := range cmds {
			res := runCmd(t, in, cmd)
			if res.Code != 0 {
				t.Fatalf("%s: %q exited %d: %s", name, cmd, res.Code, res.Stderr)
			}
			r.outs = append(r.outs, string(res.Stdout)+"\x00"+string(res.Stderr))
		}
		if cs := in.VFS.CacheStats(); v.ft.NoDedup && cs.DedupStores != 0 {
			t.Fatalf("%s: dedup disabled but %d pages entered the shared tier", name, cs.DedupStores)
		} else if !v.ft.NoDedup && cs.DedupStores == 0 {
			t.Fatalf("%s: dedup enabled but no pages entered the shared tier", name)
		}
		r.clock = in.Now()
		return r
	}

	// Per transport the dedup-on run comes first: the dedup-off run must
	// match its output and its clock, and dedup-on must match async's.
	on := map[transport]result{}
	for _, v := range variants(transports, browsix.Features{NoDedup: true}) {
		r := run(v)
		if !v.ft.NoDedup {
			on[v.tr] = r
			for i, cmd := range cmds {
				if r.outs[i] != on[async].outs[i] {
					t.Errorf("%q: %s output %q != async output %q", cmd, v, r.outs[i], on[async].outs[i])
				}
			}
			continue
		}
		for i, cmd := range cmds {
			if on[v.tr].outs[i] != r.outs[i] {
				t.Errorf("%s: %q output diverged with dedup off\non:  %q\noff: %q",
					v.tr, cmd, on[v.tr].outs[i], r.outs[i])
			}
		}
		if on[v.tr].clock != r.clock {
			t.Errorf("%s: virtual clock %dns with dedup, %dns without — sharing leaked into time",
				v.tr, on[v.tr].clock, r.clock)
		}
	}
}

// tenantTreeLoad is the resident-fleet workload: every tenant mounts the
// shared base image and reads all of it.
func tenantTreeLoad(t testing.TB, archive []byte, tenants int, ft browsix.Features) browsix.TenantLoad {
	return browsix.TenantLoad{
		Tenants: tenants,
		Config:  browsix.Config{Features: ft},
		Setup: func(i int, in *browsix.Instance) {
			mountShare(t, in, archive)
		},
		Workload: func(i int, in *browsix.Instance) {
			for f := 0; f < dedupTreeFiles; f++ {
				data, err := in.FS().ReadFile(dedupTreePath(f))
				if err != nil || len(data) != dedupTreeFileSize {
					t.Errorf("tenant %d: read %s: err=%v len=%d", i, dedupTreePath(f), err, len(data))
					return
				}
			}
		},
	}
}

// TestTenantDedupGuard is the CI acceptance guard: 16 resident tenants
// over one hot tree must share at >= 4x (they actually share at ~16x —
// every tenant's tree pages collapse to one copy), with near-perfect
// fairness and clean ledgers, and the dedup-off ablation must agree on
// every logical number while paying >= 4x the physical footprint.
func TestTenantDedupGuard(t *testing.T) {
	archive := dedupTreeZip(t, dedupTreeFiles, dedupTreeFileSize)
	const tenants = 16
	fl := &browsix.Fleet{Workers: 4}
	on := fl.RunTenants(tenantTreeLoad(t, archive, tenants, browsix.Features{}))

	if on.Tenants != tenants || on.LogicalPages == 0 {
		t.Fatalf("harness sampled nothing: %+v", on)
	}
	if on.DedupFactor < 4 {
		t.Errorf("dedup factor %.2f at %d tenants, want >= 4", on.DedupFactor, tenants)
	}
	if on.Fairness < 0.95 {
		t.Errorf("Jain fairness %.4f, want >= 0.95", on.Fairness)
	}
	if on.MinTenantPages != on.MaxTenantPages {
		t.Errorf("identical tenants hold different footprints: min=%d max=%d",
			on.MinTenantPages, on.MaxTenantPages)
	}
	if on.SnapshotLeak != nil {
		t.Errorf("snapshot ledger: %v", on.SnapshotLeak)
	}

	off := (&browsix.Fleet{Workers: 4}).RunTenants(tenantTreeLoad(t, archive, tenants, browsix.Features{NoDedup: true}))
	// Logical behaviour is untouched by the tier: same resident pages,
	// same virtual time, to the bit.
	if on.LogicalPages != off.LogicalPages {
		t.Errorf("logical pages moved with dedup: on=%d off=%d", on.LogicalPages, off.LogicalPages)
	}
	if on.VirtualNs != off.VirtualNs {
		t.Errorf("virtual time moved with dedup: on=%dns off=%dns", on.VirtualNs, off.VirtualNs)
	}
	// Physical footprint is where the win lives.
	if off.PhysicalPages < 4*on.PhysicalPages {
		t.Errorf("dedup saved less than 4x: %d physical pages on, %d off",
			on.PhysicalPages, off.PhysicalPages)
	}
	t.Logf("N=%d: %.1f pages/tenant on vs %.1f off (%.1fx dedup, fairness %.4f, %d KiB of pages vs %d KiB)",
		tenants, on.PagesPerTenant, off.PagesPerTenant, on.DedupFactor, on.Fairness,
		on.PhysicalPages*fs.PageSize>>10, off.PhysicalPages*fs.PageSize>>10)
}

// TestTenantDedupWithSnapshotWarmup exercises the full stack at tenant
// scale: a sealed snapshot registry (image pages in the SAME index) plus
// per-tenant processes reading the shared tree through real syscalls.
func TestTenantDedupWithSnapshotWarmup(t *testing.T) {
	archive := dedupTreeZip(t, 8, dedupTreeFileSize)
	fl := &browsix.Fleet{
		Workers: 2,
		SnapshotWarmup: &browsix.SnapshotWarmup{
			Setup: browsix.InstallBase,
			Cmds:  []string{"echo warm"},
		},
	}
	var clocks [4]int64
	load := browsix.TenantLoad{
		Tenants: 4,
		Setup: func(i int, in *browsix.Instance) {
			browsix.InstallBase(in)
			mountShare(t, in, archive)
		},
		Workload: func(i int, in *browsix.Instance) {
			res := runCmd(t, in, "cat /share/tree/f001.dat /share/tree/f003.dat | wc -c")
			if res.Code != 0 {
				t.Errorf("tenant %d: wc exited %d: %s", i, res.Code, res.Stderr)
			}
			clocks[i] = in.Now()
		},
	}
	st := fl.RunTenants(load)
	if st.SnapshotLeak != nil {
		t.Errorf("snapshot ledger after teardown: %v", st.SnapshotLeak)
	}
	if st.DedupFactor < 2 {
		t.Errorf("dedup factor %.2f with 4 tenants on one tree, want >= 2", st.DedupFactor)
	}
	for i := 1; i < len(clocks); i++ {
		if clocks[i] != clocks[0] {
			t.Errorf("tenant %d clock %dns != tenant 0 clock %dns (shard scheduling leaked into time)",
				i, clocks[i], clocks[0])
		}
	}
}

// BenchmarkTenantDedup is the headline scaling number: pages/tenant and
// the dedup factor at N=64 resident tenants on one hot tree.
func BenchmarkTenantDedup(b *testing.B) {
	archive := dedupTreeZip(b, dedupTreeFiles, dedupTreeFileSize)
	for i := 0; i < b.N; i++ {
		fl := &browsix.Fleet{}
		st := fl.RunTenants(tenantTreeLoad(b, archive, 64, browsix.Features{}))
		b.ReportMetric(st.PagesPerTenant, "pages/tenant")
		b.ReportMetric(st.DedupFactor, "dedupx")
		b.ReportMetric(st.Fairness, "fairness")
	}
}
