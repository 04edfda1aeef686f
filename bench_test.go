package browsix_test

// Benchmark harness: one benchmark per table/figure in the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
// Wall-clock time measures the *simulator*; the quantity corresponding to
// the paper's measurements is the simulated browser time, reported as the
// custom metric "virtual-ms/op" (and µs for the syscall microbenchmarks).
// EXPERIMENTS.md tabulates paper-vs-measured for every row.
//
// Regenerate everything in human-readable form with:
//
//	go run ./cmd/experiments

import (
	"testing"

	browsix "repro"
	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/meme"
	"repro/internal/sched"
)

// reportVirtual runs fn b.N times, reporting its virtual-ns result as
// virtual milliseconds per operation.
func reportVirtual(b *testing.B, fn func() int64) {
	b.Helper()
	var total int64
	for i := 0; i < b.N; i++ {
		total += fn()
	}
	b.ReportMetric(float64(total)/float64(b.N)/1e6, "virtual-ms/op")
}

// ---------------------------------------------------------------------------
// Figure 9: sha1sum and ls under Native / Node.js / Browsix.
// ---------------------------------------------------------------------------

func BenchmarkFig9_Sha1sum_Native(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Fig9("sha1sum", "/usr/bin/node").NativeNs })
}

func BenchmarkFig9_Sha1sum_NodeJS(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Fig9("sha1sum", "/usr/bin/node").NodeNs })
}

func BenchmarkFig9_Sha1sum_Browsix(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Fig9("sha1sum", "/usr/bin/node").BrowsixNs })
}

func BenchmarkFig9_Ls_Native(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Fig9("ls", "/usr/bin").NativeNs })
}

func BenchmarkFig9_Ls_NodeJS(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Fig9("ls", "/usr/bin").NodeNs })
}

func BenchmarkFig9_Ls_Browsix(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Fig9("ls", "/usr/bin").BrowsixNs })
}

// ---------------------------------------------------------------------------
// §5.2 LaTeX editor: native ~100ms, Browsix sync ~3s, Browsix async ~12s.
// ---------------------------------------------------------------------------

func BenchmarkLatex_NativePdflatex(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Latex().NativeNs })
}

func BenchmarkLatex_BrowsixSyncSyscalls(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Latex().SyncNs })
}

func BenchmarkLatex_BrowsixAsyncEmterpreter(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Latex().AsyncNs })
}

// ---------------------------------------------------------------------------
// §5.2 meme generator: list 1.7/9/6 ms, WAN ~3x, generate 200ms vs ~2s.
// ---------------------------------------------------------------------------

func BenchmarkMeme_List_NativeLocalServer(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Meme().ListLocalServerNs })
}

func BenchmarkMeme_List_BrowsixChrome(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Meme().ListChromeNs })
}

func BenchmarkMeme_List_BrowsixFirefox(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Meme().ListFirefoxNs })
}

func BenchmarkMeme_List_RemoteWAN(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Meme().ListEC2Ns })
}

func BenchmarkMeme_Generate_NativeServer(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Meme().GenServerNs })
}

func BenchmarkMeme_Generate_BrowsixGopherJS(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.Meme().GenBrowsixNs })
}

// ---------------------------------------------------------------------------
// §3.2 / §6: per-syscall transport cost (async ≈ 10^3 × native; sync
// several times cheaper than async).
// ---------------------------------------------------------------------------

func reportSyscall(b *testing.B, pick func(expt.SyscallBench) int64) {
	b.Helper()
	var total int64
	for i := 0; i < b.N; i++ {
		total += pick(expt.MeasureSyscalls())
	}
	b.ReportMetric(float64(total)/float64(b.N)/1e3, "virtual-us/call")
}

func BenchmarkSyscallTransport_NativeLinux(b *testing.B) {
	reportSyscall(b, func(s expt.SyscallBench) int64 { return s.NativeNs })
}

func BenchmarkSyscallTransport_BrowsixSync(b *testing.B) {
	reportSyscall(b, func(s expt.SyscallBench) int64 { return s.SyncNs })
}

func BenchmarkSyscallTransport_BrowsixAsync(b *testing.B) {
	reportSyscall(b, func(s expt.SyscallBench) int64 { return s.AsyncNs })
}

func BenchmarkSyscallTransport_BrowsixAsyncEmterpreter(b *testing.B) {
	reportSyscall(b, func(s expt.SyscallBench) int64 { return s.AsyncEmterpNs })
}

// ---------------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------------

// BenchmarkAblation_LazyOverlay vs Eager reproduces the §3.6 design
// choice: Browsix made the overlay underlay lazy; the original BrowserFS
// behaviour read the whole read-only tree at initialization.
func BenchmarkAblation_LazyOverlay(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.MeasureLazyAblation().LazyNs })
}

func BenchmarkAblation_EagerOverlay(b *testing.B) {
	reportVirtual(b, func() int64 { return expt.MeasureLazyAblation().EagerNs })
}

// BenchmarkAblation_PostMessageSize sweeps structured-clone payload sizes,
// the cost §6 complains about ("message passing is three orders of
// magnitude slower than traditional system calls").
func BenchmarkAblation_PostMessageSize(b *testing.B) {
	for _, size := range []int{16, 1 << 10, 64 << 10, 1 << 20} {
		size := size
		b.Run(byteSizeName(size), func(b *testing.B) {
			reportVirtual(b, func() int64 {
				sim := sched.New()
				sim.MaxSteps = 1_000_000
				sys := browser.NewSystem(sim, browser.Chrome())
				url := sys.CreateObjectURL([]byte("w"))
				var w *browser.Worker
				var delivered int64
				sim.Post(sys.Main.Sched(), 0, func() {
					w = sys.NewWorker(sys.Main, url, func(w *browser.Worker) {
						w.Ctx.OnMessage = func(browser.Value) { delivered = w.Ctx.Now() }
					})
				})
				sim.Run() // let the worker finish starting
				var sent int64
				sim.Post(sys.Main.Sched(), sim.Now(), func() {
					sent = sys.Main.Now()
					w.PostMessage(make([]byte, size))
				})
				sim.Run()
				return delivered - sent
			})
		})
	}
}

func byteSizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "1MiB"
	case n >= 1<<10:
		return itoa(n>>10) + "KiB"
	default:
		return itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblation_PipeThroughput measures kernel pipe bandwidth through
// a real two-process pipeline (cat | wc -c on a 1 MiB file).
func BenchmarkAblation_PipeThroughput(b *testing.B) {
	reportVirtual(b, func() int64 {
		in := browsix.Boot(browsix.Config{})
		browsix.InstallBase(in)
		put(b, in, "/big.bin", make([]byte, 1<<20))
		res := runCmd(b, in, "cat /big.bin | wc -c")
		if res.Code != 0 {
			b.Fatalf("pipeline failed: %s", res.Stderr)
		}
		return res.Elapsed
	})
}

// BenchmarkAblation_SpawnLatency measures process creation end-to-end
// (worker start + runtime boot + init message + exit), the fixed cost
// behind every Figure 9 Browsix row.
func BenchmarkAblation_SpawnLatency(b *testing.B) {
	reportVirtual(b, func() int64 {
		in := browsix.Boot(browsix.Config{})
		browsix.InstallBase(in)
		return runCmd(b, in, "true").Elapsed
	})
}

// ---------------------------------------------------------------------------
// Checkpoint/fork subsystem (internal/snapshot): the Nth spawn of a
// runtime as a copy-on-write clone of its post-boot image versus a full
// cold boot. CI smoke-runs both and guards the ratio (>= 5x, also pinned
// deterministically by TestForkSpawnRatioGuard).
// ---------------------------------------------------------------------------

// forkSpawnElapsed measures the second spawn of a Node-runtime utility:
// a cold boot when snapshots are off, a clone boot when on (the first
// spawn captured the image). Cache state is identical either way.
func forkSpawnElapsed(b *testing.B, snaps bool) int64 {
	in := browsix.Boot(browsix.Config{EnableSnapshots: snaps})
	browsix.InstallBase(in)
	runCmd(b, in, "echo warm")
	return runCmd(b, in, "echo measured").Elapsed
}

func BenchmarkForkSpawn(b *testing.B) {
	reportVirtual(b, func() int64 { return forkSpawnElapsed(b, true) })
}

func BenchmarkColdSpawn(b *testing.B) {
	reportVirtual(b, func() int64 { return forkSpawnElapsed(b, false) })
}

// ---------------------------------------------------------------------------
// Ring-transport / vectored-pipe benchmarks. BenchmarkPipe* measures the
// kernel pipe data plane itself (real wall-clock MB/s via b.SetBytes):
// the scalar path copies every chunk into the pipe; the vectored path
// moves owned 64 KiB buffers through WriteOwned/Splice and recycles them,
// the zero-copy discipline the ring transport's splice path uses.
// ---------------------------------------------------------------------------

const pipeBenchChunk = 64 * 1024
const pipeBenchChunks = 64 // 4 MiB per op

func BenchmarkPipeScalar(b *testing.B) {
	b.SetBytes(pipeBenchChunk * pipeBenchChunks)
	src := make([]byte, pipeBenchChunk)
	for i := range src {
		src[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPipe()
		for c := 0; c < pipeBenchChunks; c++ {
			p.Write(src, func(int, abi.Errno) {})
			var got int
			p.Read(pipeBenchChunk, func(bts []byte, err abi.Errno) { got = len(bts) })
			if got != pipeBenchChunk {
				b.Fatalf("short read: %d", got)
			}
		}
	}
}

func BenchmarkPipeVectored(b *testing.B) {
	b.SetBytes(pipeBenchChunk * pipeBenchChunks)
	buf := make([]byte, pipeBenchChunk)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPipe()
		for c := 0; c < pipeBenchChunks; c++ {
			p.WriteOwned([][]byte{buf}, func(int, abi.Errno) {})
			var got [][]byte
			p.Splice(pipeBenchChunk, func(segs [][]byte, err abi.Errno) { got = segs })
			if len(got) != 1 || len(got[0]) != pipeBenchChunk {
				b.Fatal("short splice")
			}
			buf = got[0] // recycle the buffer that crossed the pipe
		}
	}
}

// BenchmarkRingTransport runs the paper's pipe benchmark (cat | wc -c on
// a 1 MiB file) with the coreutils on a synchronous runtime, comparing
// the ring transport against the async transport. Virtual time is the
// quantity of interest (virtual-ms/op); b.SetBytes additionally reports
// harness wall-clock MB/s.
func BenchmarkRingTransport(b *testing.B) {
	const payload = 1 << 20
	for _, v := range variants([]transport{ring, async}) {
		b.Run(v.String(), func(b *testing.B) {
			b.SetBytes(payload)
			reportVirtual(b, func() int64 {
				in := v.boot(browsix.Config{})
				put(b, in, "/big.bin", make([]byte, payload))
				res := runCmd(b, in, "cat /big.bin | wc -c")
				if res.Code != 0 {
					b.Fatalf("pipeline failed: %s", res.Stderr)
				}
				return res.Elapsed
			})
		})
	}
}

// BenchmarkMemeCompose measures the real (wall-clock) Go cost of the
// image-composition code itself — the work whose virtual cost the int64
// penalty scales. This one reports actual ns/op, not virtual time.
func BenchmarkMemeCompose(b *testing.B) {
	font, err := meme.ParseFont(meme.FontFile())
	if err != nil {
		b.Fatal(err)
	}
	assets := &meme.Assets{Font: font}
	tpl := meme.Templates()["doge"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, _ := assets.Compose(tpl, "MUCH UNIX", "VERY BROWSER")
		if img.W != tpl.W {
			b.Fatal("compose broke the image")
		}
	}
}

// BenchmarkMemeServerLoad measures the event-loop server's sustained
// throughput under the 1000-client open-loop keep-alive swarm, reporting
// virtual requests/sec alongside the wall cost of simulating the run.
func BenchmarkMemeServerLoad(b *testing.B) {
	var rps int64
	for i := 0; i < b.N; i++ {
		in := bootMemeLoad(b, ring)
		in.StartMemeServerArgs()
		s := healthSwarm(1000, 3, true)
		s.OpenLoop = true
		rep := browsix.RunSwarm(in, s, meme.Port)
		if rep.Requests != 3000 || rep.Errors != 0 {
			b.Fatalf("swarm dropped requests: %+v", rep)
		}
		rps = rep.RPSx1000
	}
	b.ReportMetric(float64(rps)/1000, "virtual-req/s")
}
