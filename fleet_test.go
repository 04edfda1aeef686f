package browsix_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	browsix "repro"
	"repro/internal/meme"
	"repro/internal/tex"
)

// ---------------------------------------------------------------------------
// Fleet workloads: one job per case study (§2, §5.1.1, §5.1.2) plus a
// shell pipeline — the mixed batch the fleet scheduler is measured on.
// ---------------------------------------------------------------------------

func pipelineJob() browsix.Job {
	return browsix.Job{
		Name:  "pipeline",
		Setup: browsix.InstallBase,
		Spec: browsix.Spec{Argv: []string{"/bin/sh", "-c",
			"cat /etc/motd | wc -c; ls /usr/bin | head -n 3; echo fleet | cat"}},
	}
}

func latexJob() browsix.Job {
	return browsix.Job{
		Name: "latex",
		Setup: func(in *browsix.Instance) {
			browsix.InstallBase(in)
			docTex, docBib := tex.SampleDocument()
			browsix.InstallTexProject(in, tex.SmallTree(), browsix.TexSync, docTex, docBib)
		},
		Run: func(in *browsix.Instance) browsix.JobOutput {
			code, log := in.BuildPDF()
			return browsix.JobOutput{Code: code, Stdout: []byte(log)}
		},
	}
}

func memeJob() browsix.Job {
	return browsix.Job{
		Name: "meme",
		Setup: func(in *browsix.Instance) {
			browsix.InstallBase(in)
			browsix.InstallMeme(in, 50_000_000)
		},
		Run: func(in *browsix.Instance) browsix.JobOutput {
			pid := in.StartMemeServer()
			body, _ := json.Marshal(meme.GenRequest{
				Template: "doge", Top: "MUCH FLEET", Bottom: "VERY PARALLEL"})
			resp := in.GenerateMeme("browsix", body)
			code := 1
			if resp.Status == 200 {
				code = 0
			}
			// Stop the server so it exits and returns its snapshot pins
			// (frozen arena slots would otherwise stay charged).
			in.Kill(pid, 9)
			in.Run()
			return browsix.JobOutput{Code: code, Stdout: resp.Body}
		},
	}
}

func terminalJob() browsix.Job {
	return browsix.Job{
		Name:  "terminal",
		Setup: browsix.InstallBase,
		Run: func(in *browsix.Instance) browsix.JobOutput {
			term := in.NewTerminal()
			out := term.Exec("echo interactive | wc -c")
			out += term.Exec("ls / | head -n 4")
			code := term.Close()
			return browsix.JobOutput{Code: code, Stdout: []byte(out)}
		},
	}
}

func fleetJobs() []browsix.Job {
	return []browsix.Job{pipelineJob(), latexJob(), memeJob(), terminalJob()}
}

// runJobPrivate executes one job the pre-fleet way: a plain Boot with a
// private page pool, everything on the calling goroutine. This is the
// serial baseline the differential compares the fleet against.
func runJobPrivate(job browsix.Job) browsix.JobResult {
	res := browsix.JobResult{Name: job.Name}
	in := browsix.Boot(job.Config)
	if job.Setup != nil {
		job.Setup(in)
	}
	if job.Run != nil {
		res.JobOutput = job.Run(in)
	} else {
		spec := job.Spec
		var outBuf, errBuf bytes.Buffer
		spec.Stdout, spec.Stderr = &outBuf, &errBuf
		p, err := in.Start(spec)
		if err != nil {
			res.Err, res.Code = err, 127
		} else {
			code, werr := p.Wait()
			res.Err, res.Code = werr, code
			res.Stdout, res.Stderr = outBuf.Bytes(), errBuf.Bytes()
		}
	}
	res.VirtualNs = in.Now()
	return res
}

// ---------------------------------------------------------------------------
// Determinism differential: serial private-pool execution vs the fleet
// at N=1, N=4, and N=GOMAXPROCS. Byte-identical stdout/stderr, equal
// exit codes, equal virtual clocks — parallelism must change wall-clock
// time and nothing else.
// ---------------------------------------------------------------------------

func TestFleetSerialParallelIdentical(t *testing.T) {
	jobs := fleetJobs()
	base := make([]browsix.JobResult, len(jobs))
	for i, job := range jobs {
		base[i] = runJobPrivate(job)
		if base[i].Err != nil {
			t.Fatalf("serial %s: %v", job.Name, base[i].Err)
		}
		if base[i].Code != 0 {
			t.Fatalf("serial %s: exit %d\n%s%s", job.Name, base[i].Code, base[i].Stdout, base[i].Stderr)
		}
	}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, n := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			fl := &browsix.Fleet{Workers: n}
			results, stats := fl.Run(fleetJobs())
			for i, res := range results {
				want := base[i]
				if res.Err != nil {
					t.Fatalf("%s: %v", res.Name, res.Err)
				}
				if res.Index != i || res.Name != jobs[i].Name {
					t.Fatalf("result %d misordered: index=%d name=%s", i, res.Index, res.Name)
				}
				if res.Code != want.Code {
					t.Errorf("%s: exit %d, serial %d", res.Name, res.Code, want.Code)
				}
				if !bytes.Equal(res.Stdout, want.Stdout) {
					t.Errorf("%s: stdout diverged from serial\nfleet:  %q\nserial: %q",
						res.Name, res.Stdout, want.Stdout)
				}
				if !bytes.Equal(res.Stderr, want.Stderr) {
					t.Errorf("%s: stderr diverged from serial\nfleet:  %q\nserial: %q",
						res.Name, res.Stderr, want.Stderr)
				}
				if res.VirtualNs != want.VirtualNs {
					t.Errorf("%s: virtual clock %dns, serial %dns — timing is not bit-identical",
						res.Name, res.VirtualNs, want.VirtualNs)
				}
			}
			if stats.Jobs != len(jobs) {
				t.Errorf("stats.Jobs = %d, want %d", stats.Jobs, len(jobs))
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Live counters: CacheStats and the kernel's atomic counters must be
// readable from the host while instances run on worker threads (the
// torn-read audit's test).
// ---------------------------------------------------------------------------

func TestFleetCountersReadableWhileRunning(t *testing.T) {
	var mu sync.Mutex
	var live []*browsix.Instance
	fl := &browsix.Fleet{
		Workers: 2,
		OnBoot: func(_ int, in *browsix.Instance) {
			mu.Lock()
			live = append(live, in)
			mu.Unlock()
		},
	}
	done := make(chan struct{})
	var results []browsix.JobResult
	var stats browsix.FleetStats
	go func() {
		defer close(done)
		results, stats = fl.Run(fleetJobs())
	}()

	// Poll every live instance's counters until the fleet finishes. The
	// values are loose snapshots; the race detector is the referee here —
	// a non-atomic counter would be flagged, a torn read would be
	// possible without one.
	polls := 0
	for {
		select {
		case <-done:
			if polls == 0 {
				t.Log("fleet finished before any poll (fast host) — counters still exercised once below")
			}
			mu.Lock()
			for _, in := range live {
				cs := in.VFS.CacheStats()
				if cs.DentryMisses < 0 || cs.PageBytes < 0 || cs.CachedPages < 0 {
					t.Errorf("nonsense cache stats after quiesce: %+v", cs)
				}
			}
			mu.Unlock()
			for _, res := range results {
				if res.Err != nil || res.Code != 0 {
					t.Fatalf("%s: err=%v code=%d", res.Name, res.Err, res.Code)
				}
			}
			if stats.SyncSyscalls+stats.AsyncSyscalls == 0 {
				t.Error("no syscalls aggregated across the fleet")
			}
			return
		default:
		}
		mu.Lock()
		for _, in := range live {
			cs := in.VFS.CacheStats()
			_ = cs.DentryHits + cs.PageHits + cs.PageBytes + cs.CachedPages
			_ = int(cs.PinnedPages) + cs.DentryEntries
			k := in.Kernel
			_ = k.AsyncSyscalls.Load() + k.SyncSyscalls.Load() + k.SignalsDelivered.Load()
			_ = k.RingSyscalls.Load() + k.RingBatchedCalls.Load() + k.RingNotifies.Load()
			_ = k.ReadCopiedBytes.Load() + k.WriteCopiedBytes.Load() + k.CloneBoots.Load()
			polls++
		}
		mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Scaling: with >=4 host cores, 4 workers must beat 1 worker by >=2x on
// the same 4-job batch (the CI sanity guard; near-linear is typical).
// ---------------------------------------------------------------------------

func TestFleetScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short mode")
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		t.Skipf("need >=4 host cores for the scaling guard, have GOMAXPROCS=%d", n)
	}
	batch := func() []browsix.Job {
		return []browsix.Job{latexJob(), latexJob(), latexJob(), latexJob()}
	}
	serialRes, serial := (&browsix.Fleet{Workers: 1}).Run(batch())
	parallelRes, parallel := (&browsix.Fleet{Workers: 4}).Run(batch())
	for i := range serialRes {
		if serialRes[i].Code != 0 || parallelRes[i].Code != 0 {
			t.Fatalf("job %d: serial code=%d parallel code=%d", i, serialRes[i].Code, parallelRes[i].Code)
		}
		if serialRes[i].VirtualNs != parallelRes[i].VirtualNs {
			t.Fatalf("job %d virtual clock diverged: %d vs %d", i,
				serialRes[i].VirtualNs, parallelRes[i].VirtualNs)
		}
	}
	speedup := float64(serial.WallNs) / float64(parallel.WallNs)
	t.Logf("serial %.0fms, parallel %.0fms: %.2fx speedup (%.1f vs %.1f sessions/sec)",
		float64(serial.WallNs)/1e6, float64(parallel.WallNs)/1e6, speedup,
		serial.SessionsPerSec, parallel.SessionsPerSec)
	if speedup < 2 {
		t.Errorf("4 workers only %.2fx faster than 1 on 4 jobs; want >=2x", speedup)
	}
}

// ---------------------------------------------------------------------------
// BenchmarkFleet: sessions/sec over the mixed case-study batch at full
// GOMAXPROCS (the fleet's headline number; CI smokes it at -benchtime=1x).
// ---------------------------------------------------------------------------

func BenchmarkFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, stats := browsix.RunFleet(fleetJobs())
		for _, res := range results {
			if res.Err != nil || res.Code != 0 {
				b.Fatalf("%s: err=%v code=%d", res.Name, res.Err, res.Code)
			}
		}
		b.ReportMetric(stats.SessionsPerSec, "sessions/sec")
	}
}

// TestFleetWarmupFailurePanics: a snapshot warm-up command that cannot
// launch or exits non-zero panics on the caller's goroutine before any
// job or tenant is set up, naming the command, the failure and its
// stderr. Ignoring it would seal a registry without images and run every
// job cold.
func TestFleetWarmupFailurePanics(t *testing.T) {
	for _, c := range []struct{ cmd, want string }{
		{"/no/such/prog", "start /no/such/prog: ENOENT"},
		{"false", "exited 1"},
		{"cat /missing", "exited 1; stderr: cat: /missing: ENOENT"},
	} {
		var setups atomic.Int32
		fl := &browsix.Fleet{Workers: 1, SnapshotWarmup: &browsix.SnapshotWarmup{
			Setup: browsix.InstallBase,
			Cmds:  []string{c.cmd},
		}}
		for _, r := range []struct {
			name string
			run  func()
		}{
			{"Run", func() {
				fl.Run([]browsix.Job{{
					Setup: func(*browsix.Instance) { setups.Add(1) },
					Spec:  browsix.Spec{Argv: []string{"true"}},
				}})
			}},
			{"RunTenants", func() {
				fl.RunTenants(browsix.TenantLoad{
					Tenants:  1,
					Setup:    func(int, *browsix.Instance) { setups.Add(1) },
					Workload: func(int, *browsix.Instance) {},
				})
			}},
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				r.run()
				return
			}()
			if !strings.Contains(msg, fmt.Sprintf("%q", c.cmd)) || !strings.Contains(msg, c.want) {
				t.Errorf("%s with warm-up %q: panic %q, want the command and %q", r.name, c.cmd, msg, c.want)
			}
		}
		if n := setups.Load(); n != 0 {
			t.Errorf("warm-up %q: %d jobs or tenants set up after the warm-up failed", c.cmd, n)
		}
	}
}
