package browsix_test

import (
	"strings"
	"testing"

	browsix "repro"
	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/posix"
	"repro/internal/rt"
)

// TestFigure3SyscallCoverage asserts the kernel's syscall table contains
// everything Figure 3 lists, and that a representative of each class
// actually dispatches (non-ENOSYS) through the async transport.
func TestFigure3SyscallCoverage(t *testing.T) {
	table := core.SyscallTable()
	figure3 := map[string][]string{
		"Process Management": {"fork", "spawn", "pipe2", "wait4", "exit"},
		"Process Metadata":   {"chdir", "getcwd", "getpid"},
		"Sockets":            {"socket", "bind", "getsockname", "listen", "accept", "connect"},
		"Directory IO":       {"readdir", "getdents", "rmdir", "mkdir"},
		"File IO":            {"open", "close", "unlink", "llseek", "pread", "pwrite"},
		"File Metadata":      {"access", "fstat", "lstat", "stat", "readlink", "utimes"},
	}
	for class, calls := range figure3 {
		have := map[string]bool{}
		for _, c := range table[class] {
			have[c] = true
		}
		for _, c := range calls {
			if !have[c] {
				t.Errorf("Figure 3 syscall %s missing from class %s", c, class)
			}
		}
	}
}

// TestFigure2Inventory sanity-checks that the component inventory used by
// cmd/experiments corresponds to real directories with real code.
func TestFigure2Inventory(t *testing.T) {
	// A cheap proxy: the packages must at least register their programs
	// and types; compile-time imports in this test assert existence.
	if len(posix.ProgramNames()) < 25 {
		t.Fatalf("only %d programs registered; expected the full busybox set", len(posix.ProgramNames()))
	}
}

// TestTable1FeatureMatrix executes a capability probe per Table 1 cell
// for the BROWSIX row (the non-Browsix rows are definitionally lacking
// the features — nothing to run).
func TestTable1FeatureMatrix(t *testing.T) {
	in := bootBase(t)
	// Filesystem (shared, multi-process): two processes observe each
	// other's writes.
	runOK(t, in, "echo cross-process > /t1")
	if got := runOK(t, in, "cat /t1"); got != "cross-process\n" {
		t.Fatal("shared filesystem")
	}
	// Pipes + processes.
	if got := runOK(t, in, "echo p | cat | cat"); got != "p\n" {
		t.Fatal("pipes/processes")
	}
	// Signals, socket server + client: covered by dedicated tests; this
	// asserts the registry claims match the kernel table.
	table := core.SyscallTable()
	for _, class := range []string{"Sockets", "Process Management"} {
		if len(table[class]) == 0 {
			t.Fatalf("class %s empty", class)
		}
	}
}

func init() {
	// Probe programs for the wasm and sync-kill tests (the t-* programs
	// in internal/core's tests live in a different test binary).
	posix.Register(&posix.Program{Name: "x-fsops", Main: func(p posix.Proc) int {
		if err := p.Mkdir("/xw", 0o755); err != abi.OK {
			return 1
		}
		if err := posix.WriteFile(p, "/xw/f", []byte("data"), 0o644); err != abi.OK {
			return 2
		}
		b, err := posix.ReadFile(p, "/xw/f")
		if err != abi.OK || string(b) != "data" {
			return 3
		}
		for i := 0; i < 50; i++ {
			if _, err := p.Stat("/xw/f"); err != abi.OK {
				return 4
			}
		}
		p.Unlink("/xw/f")
		p.Rmdir("/xw")
		posix.Fprintf(p, abi.Stdout, "fsok runtime=%s\n", p.RuntimeName())
		return 0
	}})
	posix.Register(&posix.Program{Name: "x-server", Main: func(p posix.Proc) int {
		fd, _ := p.Socket()
		if err := p.Bind(fd, 8080); err != abi.OK {
			return 1
		}
		if err := p.Listen(fd, 4); err != abi.OK {
			return 2
		}
		p.Accept(fd) // blocks forever; the test SIGKILLs us here
		return 0
	}})
}

// TestWasmExecutable runs a program installed as a WebAssembly executable
// (§3.3) — sync transport, faster than asm.js.
func TestWasmExecutable(t *testing.T) {
	in := bootBase(t)
	if err := in.FS().WriteFile("usr/bin/wasm-fsops", rt.Artifact("x-fsops", rt.WasmKind), 0o644); err != nil {
		t.Fatal(err)
	}
	res := runCmd(t, in, "/usr/bin/wasm-fsops")
	if res.Code != 0 {
		t.Fatalf("wasm program exited %d: %s", res.Code, res.Stderr)
	}
	if !strings.Contains(string(res.Stdout), "runtime=wasm") {
		t.Fatalf("stdout: %s", res.Stdout)
	}
	if in.Kernel.SyncSyscalls.Load() == 0 {
		t.Fatal("wasm runtime should use the synchronous transport")
	}
}

// TestWasmFasterThanAsmJS checks the §6-adjacent expectation that wasm
// outperforms asm.js on the same workload.
func TestWasmFasterThanAsmJS(t *testing.T) {
	run := func(kind rt.Kind) int64 {
		in := bootBase(t)
		if err := in.FS().WriteFile("usr/bin/prog", rt.Artifact("x-fsops", kind), 0o644); err != nil {
			t.Fatal(err)
		}
		res := runCmd(t, in, "/usr/bin/prog")
		if res.Code != 0 {
			t.Fatalf("%s exited %d", kind, res.Code)
		}
		return res.Elapsed
	}
	wasm := run(rt.WasmKind)
	asmjs := run(rt.EmSyncKind)
	if wasm >= asmjs {
		t.Fatalf("wasm (%d) not faster than asm.js (%d)", wasm, asmjs)
	}
}

// TestKillSyncBlockedProcess kills a process that is futex-blocked inside
// a synchronous accept — the worker thread is suspended in Atomics.wait,
// and SIGKILL must still tear it down (worker.terminate()).
func TestKillSyncBlockedProcess(t *testing.T) {
	in := bootBase(t)
	if err := in.FS().WriteFile("usr/bin/sync-server", rt.Artifact("x-server", rt.EmSyncKind), 0o644); err != nil {
		t.Fatal(err)
	}
	listening := false
	in.OnListen(8080, func(int) { listening = true })
	p, err := in.Start(browsix.Spec{Argv: []string{"/usr/bin/sync-server"}})
	if err != nil {
		t.Fatal(err)
	}
	if !in.RunUntil(func() bool { return listening }) {
		t.Fatal("sync server never listened")
	}
	in.Main(func() {
		if err := in.Kill(p.Pid, abi.SIGKILL); err != abi.OK {
			t.Errorf("kill: %v", err)
		}
	})
	if !in.RunUntil(p.Exited) {
		t.Fatalf("sync-blocked process survived SIGKILL\n%s", in.Sim.Dump())
	}
	if code := p.ExitCode(); code != 128+abi.SIGKILL {
		t.Fatalf("exit code %d", code)
	}
}

// TestExperimentHarnessSmoke guards the evaluation harness against rot
// without paying for the full suite on every test run.
func TestExperimentHarnessSmoke(t *testing.T) {
	row := expt.Fig9("ls", "/usr/bin")
	if !(row.NativeNs < row.NodeNs && row.NodeNs < row.BrowsixNs) {
		t.Fatalf("figure 9 ordering violated: %+v", row)
	}
	sc := expt.MeasureSyscalls()
	if !(sc.NativeNs < sc.SyncNs && sc.SyncNs < sc.AsyncNs && sc.AsyncNs < sc.AsyncEmterpNs) {
		t.Fatalf("syscall transport ordering violated: %+v", sc)
	}
	// §6: message passing ~three orders of magnitude over a syscall.
	ratio := float64(sc.AsyncNs) / float64(sc.NativeNs)
	if ratio < 100 || ratio > 10000 {
		t.Fatalf("async/native ratio %.0fx outside the paper's claim", ratio)
	}
}

// TestCalibrationPinned pins the calibration table exactly: the Figure 9
// rows and the per-call syscall costs are deterministic virtual ns, so
// any change to them is a cost-model change. SyncNs is 214,750 since the
// zero-copy write path was removed (215,811 before): the probe's clock
// read (nowVia) writes 1 byte inside the timed window, and that write
// now takes one copying write call instead of a wgalloc + writeg round
// trip.
func TestCalibrationPinned(t *testing.T) {
	fig9 := []expt.Fig9Row{
		{Command: "sha1sum /usr/bin/node", NativeNs: 2_755_431, NodeNs: 67_564_055, BrowsixNs: 196_078_756},
		{Command: "ls /usr/bin", NativeNs: 571_600, NodeNs: 40_839_000, BrowsixNs: 104_039_620},
	}
	for i, got := range expt.Fig9All() {
		if got != fig9[i] {
			t.Errorf("figure 9 row moved:\n got  %+v\n want %+v", got, fig9[i])
		}
	}
	want := expt.SyscallBench{NativeNs: 408, AsyncNs: 389_018, SyncNs: 214_750, AsyncEmterpNs: 715_418}
	if got := expt.MeasureSyscalls(); got != want {
		t.Errorf("per-call syscall costs moved:\n got  %+v\n want %+v", got, want)
	}
}

// TestMemeGenerationShapes asserts the §5.2 generation ratios: Browsix
// generation ~an order of magnitude over the native server, list requests
// the other way around once WAN latency is involved.
func TestMemeGenerationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full meme measurement")
	}
	r := expt.Meme()
	genRatio := float64(r.GenBrowsixNs) / float64(r.GenServerNs)
	if genRatio < 5 || genRatio > 20 {
		t.Fatalf("generation ratio %.1fx, want ~10x (paper: 2s vs 200ms)", genRatio)
	}
	listRatio := float64(r.ListEC2Ns) / float64(r.ListChromeNs)
	if listRatio < 2 || listRatio > 6 {
		t.Fatalf("WAN/browsix list ratio %.1fx, want ~3x", listRatio)
	}
	if r.ListFirefoxNs >= r.ListChromeNs {
		t.Fatal("Firefox list should be faster than Chrome (cheaper messages)")
	}
}

// TestLatexTimingShapes asserts the §5.2 LaTeX ratios.
func TestLatexTimingShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full latex measurement")
	}
	r := expt.Latex()
	syncRatio := float64(r.SyncNs) / float64(r.NativeNs)
	if syncRatio < 10 || syncRatio > 100 {
		t.Fatalf("sync/native ratio %.0fx, want order-of-magnitude-ish (paper ~30x)", syncRatio)
	}
	asyncRatio := float64(r.AsyncNs) / float64(r.SyncNs)
	if asyncRatio < 2 || asyncRatio > 8 {
		t.Fatalf("async/sync ratio %.1fx, want ~4x (paper 12s vs 3s)", asyncRatio)
	}
	if r.FilesFetched >= r.TreeFileCount/10 {
		t.Fatalf("lazy loading fetched %d of %d files", r.FilesFetched, r.TreeFileCount)
	}
}
