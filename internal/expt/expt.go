// Package expt is the evaluation harness: one function per table/figure
// in the paper's §5 (plus the §6 microbenchmarks), each returning the
// measured virtual-time numbers that cmd/experiments prints and
// bench_test.go reports. EXPERIMENTS.md records paper-vs-measured.
package expt

import (
	"bytes"
	"fmt"
	"strings"

	browsix "repro"
	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/fs"
	"repro/internal/meme"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/tex"
)

// Ms converts virtual ns to milliseconds.
func Ms(ns int64) float64 { return float64(ns) / 1e6 }

// ---------------------------------------------------------------------------
// Figure 9: utilities under Native / Node.js / Browsix.
// ---------------------------------------------------------------------------

// Fig9Row is one utility's timings.
type Fig9Row struct {
	Command   string
	NativeNs  int64
	NodeNs    int64
	BrowsixNs int64
}

// nodeBinarySize models /usr/bin/node, the file sha1sum hashes in the
// paper's benchmark.
const nodeBinarySize = 1 << 20

// stageFig9Host builds the host-side filesystem image: the coreutils
// binaries in /usr/bin (so ls has entries to list) plus /usr/bin/node.
func stageFig9Host(sim *sched.Sim) *fs.FileSystem {
	clock := func() int64 { return sim.Now() }
	fsys := fs.NewFileSystem(fs.NewMemFS(clock), clock)
	fsys.MkdirAll("/usr/bin", 0o755, func(abi.Errno) {})
	for i := 0; i < 28; i++ {
		fsys.WriteFile(fmt.Sprintf("/usr/bin/util%02d", i), []byte("#!/bin/sh\n"), 0o755, func(abi.Errno) {})
	}
	body := make([]byte, nodeBinarySize)
	for i := range body {
		body[i] = byte(i * 31)
	}
	fsys.WriteFile("/usr/bin/node", body, 0o755, func(abi.Errno) {})
	return fsys
}

// stageFig9Browsix boots a Browsix world with the same content.
func stageFig9Browsix() *browsix.Instance {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	body := make([]byte, nodeBinarySize)
	for i := range body {
		body[i] = byte(i * 31)
	}
	if err := in.FS().WriteFile("usr/bin/node", body, 0o644); err != nil {
		panic("expt: staging /usr/bin/node: " + err.Error())
	}
	return in
}

// Fig9 measures one command under the three configurations.
func Fig9(argv ...string) Fig9Row {
	row := Fig9Row{Command: strings.Join(argv, " ")}

	simN := sched.New()
	simN.MaxSteps = 50_000_000
	resN := rt.RunHost(simN, stageFig9Host(simN), rt.NativeKind, argv, nil, "/")
	row.NativeNs = resN.Elapsed

	simJ := sched.New()
	simJ.MaxSteps = 50_000_000
	resJ := rt.RunHost(simJ, stageFig9Host(simJ), rt.NodeHostKind, argv, nil, "/")
	row.NodeNs = resJ.Elapsed

	_, row.BrowsixNs = run(stageFig9Browsix(), row.Command)
	return row
}

// run runs cmdline on in to completion and returns its standard output
// and the virtual ns from submission to exit on the main thread's clock.
// A launch error, a deadlock or a non-zero exit panics.
func run(in *browsix.Instance, cmdline string) ([]byte, int64) {
	var stdout, stderr bytes.Buffer
	start := in.Browser.Main.Now()
	p, err := in.Start(browsix.Spec{Argv: browsix.SplitCmdline(cmdline), Stdout: &stdout, Stderr: &stderr})
	code := 0
	if err == nil {
		code, err = p.Wait()
	}
	if err != nil || code != 0 {
		panic(fmt.Sprintf("expt: %s: exit %d (%v): %s", cmdline, code, err, stderr.Bytes()))
	}
	return stdout.Bytes(), in.Browser.Main.Now() - start
}

// Fig9All runs the table's two rows (sha1sum on /usr/bin/node, ls on
// /usr/bin).
func Fig9All() []Fig9Row {
	return []Fig9Row{
		Fig9("sha1sum", "/usr/bin/node"),
		Fig9("ls", "/usr/bin"),
	}
}

// ---------------------------------------------------------------------------
// §5.2 LaTeX editor.
// ---------------------------------------------------------------------------

// LatexResult carries the three configurations' build times.
type LatexResult struct {
	NativeNs      int64 // native pdflatex, single run
	SyncNs        int64 // Browsix build, synchronous syscalls (Chrome)
	AsyncNs       int64 // Browsix build, Emterpreter + async syscalls
	FilesFetched  int
	BytesFetched  int64
	TreeFileCount int
}

// Latex measures the one-page-paper build in all three configurations.
func Latex() LatexResult {
	var out LatexResult
	docTex, docBib := tex.SampleDocument()
	cfg := tex.DefaultTree()
	tree := tex.BuildTree(cfg)
	out.TreeFileCount = len(tree)

	// Native baseline: pdflatex directly on a local file system.
	sim := sched.New()
	sim.MaxSteps = 50_000_000
	clock := func() int64 { return sim.Now() }
	fsys := fs.NewFileSystem(fs.NewMemFS(clock), clock)
	fsys.MkdirAll("/proj", 0o755, func(abi.Errno) {})
	fsys.MkdirAll(tex.TexRoot+"/cls", 0o755, func(abi.Errno) {})
	fsys.MkdirAll(tex.TexRoot+"/sty", 0o755, func(abi.Errno) {})
	fsys.MkdirAll(tex.TexRoot+"/fonts", 0o755, func(abi.Errno) {})
	for p, b := range tree {
		if strings.HasPrefix(p, "/doc/") {
			continue
		}
		fsys.WriteFile(tex.TexRoot+p, b, 0o644, func(abi.Errno) {})
	}
	fsys.WriteFile("/proj/main.tex", []byte(docTex), 0o644, func(abi.Errno) {})
	fsys.WriteFile("/proj/main.bib", []byte(docBib), 0o644, func(abi.Errno) {})
	res := rt.RunHost(sim, fsys, rt.NativeKind, []string{"pdflatex", "main.tex"}, nil, "/proj")
	if res.Code != 0 {
		panic("expt: native pdflatex failed: " + string(res.Stderr))
	}
	out.NativeNs = res.Elapsed

	// Browsix, synchronous syscalls.
	inS := browsix.Boot(browsix.Config{})
	browsix.InstallBase(inS)
	httpfs := browsix.InstallTexProject(inS, cfg, browsix.TexSync, docTex, docBib)
	start := inS.Now()
	code, log := inS.BuildPDF()
	if code != 0 {
		panic("expt: sync latex build failed: " + log)
	}
	out.SyncNs = inS.Now() - start
	out.FilesFetched = httpfs.FetchCount
	out.BytesFetched = httpfs.BytesFetched

	// Browsix, Emterpreter + asynchronous syscalls.
	inA := browsix.Boot(browsix.Config{})
	browsix.InstallBase(inA)
	browsix.InstallTexProject(inA, cfg, browsix.TexAsync, docTex, docBib)
	start = inA.Now()
	code, log = inA.BuildPDF()
	if code != 0 {
		panic("expt: async latex build failed: " + log)
	}
	out.AsyncNs = inA.Now() - start
	return out
}

// ---------------------------------------------------------------------------
// §5.2 meme generator.
// ---------------------------------------------------------------------------

// MemeResult carries the case study's request timings.
type MemeResult struct {
	ListLocalServerNs int64 // native server on the same machine
	ListChromeNs      int64 // in-Browsix, Chrome profile
	ListFirefoxNs     int64 // in-Browsix, Firefox profile
	ListEC2Ns         int64 // remote server across a WAN
	GenServerNs       int64 // generation, native server
	GenBrowsixNs      int64 // generation, in-Browsix (GopherJS)
}

// memeBody is the standard generation request.
func memeBody() []byte {
	return []byte(`{"template":"doge","top":"MUCH UNIX","bottom":"VERY BROWSER"}`)
}

// localRTT models a server on the same machine (loopback); ec2RTT a
// wide-area round trip.
const (
	localRTT = 300_000 // 0.3ms loopback+stack
	ec2RTT   = 25_000_000
)

// Meme measures the case study's four request paths.
func Meme() MemeResult {
	var out MemeResult

	measure := func(prof browser.Profile) (int64, int64) {
		in := browsix.Boot(browsix.Config{Browser: &prof})
		browsix.InstallBase(in)
		browsix.InstallMeme(in, ec2RTT)
		in.StartMemeServer()
		// Warm up one request (the paper warms 20 of 100).
		in.FetchSync("GET", meme.Port, "/api/templates", nil)
		t0 := in.Now()
		r := in.FetchSync("GET", meme.Port, "/api/templates", nil)
		list := in.Now() - t0
		if r.Status != 200 {
			panic("expt: meme list failed")
		}
		t0 = in.Now()
		g := in.FetchSync("POST", meme.Port, "/api/meme", memeBody())
		gen := in.Now() - t0
		if g.Status != 200 {
			panic("expt: meme gen failed")
		}
		return list, gen
	}
	out.ListChromeNs, out.GenBrowsixNs = measure(browser.Chrome())
	out.ListFirefoxNs, _ = measure(browser.Firefox())

	// Remote servers: same machine (local) and EC2 (WAN).
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	browsix.InstallMeme(in, ec2RTT)
	in.Net.AddHost(meme.NewRemoteHost("local-server", localRTT, 2))
	t0 := in.Now()
	in.FetchRemoteSync("local-server", "GET", "/api/templates", nil)
	out.ListLocalServerNs = in.Now() - t0
	t0 = in.Now()
	in.FetchRemoteSync(browsix.MemeHostName, "GET", "/api/templates", nil)
	out.ListEC2Ns = in.Now() - t0
	t0 = in.Now()
	g := in.FetchRemoteSync("local-server", "POST", "/api/meme", memeBody())
	out.GenServerNs = in.Now() - t0
	if g.Status != 200 {
		panic("expt: remote meme gen failed")
	}
	return out
}

// ---------------------------------------------------------------------------
// §6 / §3.2 microbenchmarks: syscall transports vs native syscalls.
// ---------------------------------------------------------------------------

// SyscallBench carries per-call costs in ns.
type SyscallBench struct {
	NativeNs      int64 // direct host syscall
	AsyncNs       int64 // Browsix async (postMessage round trip)
	SyncNs        int64 // Browsix sync (SharedArrayBuffer + Atomics)
	AsyncEmterpNs int64 // async from the Emterpreter (adds unwind/rewind)
}

const syscallIters = 200

func init() {
	// The probe issues getppid in a loop — a genuine kernel round trip
	// on every transport (getpid is answered locally from init state).
	registerSyscallProbe("syscall-probe")
}

// MeasureSyscalls runs the probes under each configuration.
func MeasureSyscalls() SyscallBench {
	var out SyscallBench

	sim := sched.New()
	sim.MaxSteps = 50_000_000
	fsys := stageFig9Host(sim)
	res := rt.RunHost(sim, fsys, rt.NativeKind, []string{"syscall-probe"}, nil, "/")
	out.NativeNs = perCall(res.Stdout, res.Code)

	out.AsyncNs = browsixProbe(rt.NodeKind)
	out.SyncNs = browsixProbe(rt.EmSyncKind)
	out.AsyncEmterpNs = browsixProbe(rt.EmAsyncKind)
	return out
}

func browsixProbe(kind rt.Kind) int64 {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	if err := in.FS().WriteFile("usr/bin/syscall-probe", rt.Artifact("syscall-probe", kind), 0o644); err != nil {
		panic("expt: staging the syscall probe: " + err.Error())
	}
	out, _ := run(in, "/usr/bin/syscall-probe")
	return perCall(out, 0)
}

// perCall extracts the loop-only duration the probe prints on stdout and
// divides by the iteration count.
func perCall(stdout []byte, code int) int64 {
	if code != 0 {
		panic("expt: syscall probe failed")
	}
	var ns int64
	fmt.Sscanf(string(stdout), "%d", &ns)
	return ns / syscallIters
}

// ---------------------------------------------------------------------------
// §3.6 ablation: lazy vs eager underlay loading.
// ---------------------------------------------------------------------------

// LazyAblation compares time-to-first-build with the Browsix lazy overlay
// against the original BrowserFS behaviour of eagerly fetching the whole
// read-only underlay at initialization.
type LazyAblation struct {
	LazyNs       int64
	EagerNs      int64
	LazyFetches  int
	EagerFetches int
	LazyBytes    int64
	EagerBytes   int64
}

// MeasureLazyAblation runs the LaTeX build both ways.
func MeasureLazyAblation() LazyAblation {
	var out LazyAblation
	docTex, docBib := tex.SampleDocument()
	cfg := tex.DefaultTree()

	lazy := browsix.Boot(browsix.Config{})
	browsix.InstallBase(lazy)
	lhttp := browsix.InstallTexProject(lazy, cfg, browsix.TexSync, docTex, docBib)
	start := lazy.Now()
	if code, log := lazy.BuildPDF(); code != 0 {
		panic("expt: lazy build failed: " + log)
	}
	out.LazyNs = lazy.Now() - start
	out.LazyFetches, out.LazyBytes = lhttp.FetchCount, lhttp.BytesFetched

	eager := browsix.Boot(browsix.Config{})
	browsix.InstallBase(eager)
	ehttp := browsix.InstallTexProject(eager, cfg, browsix.TexSync, docTex, docBib)
	start = eager.Now()
	preloaded := false
	eager.Main(func() { ehttp.Preload(func() { preloaded = true }) })
	eager.RunUntil(func() bool { return preloaded })
	if code, log := eager.BuildPDF(); code != 0 {
		panic("expt: eager build failed: " + log)
	}
	out.EagerNs = eager.Now() - start
	out.EagerFetches, out.EagerBytes = ehttp.FetchCount, ehttp.BytesFetched
	return out
}
