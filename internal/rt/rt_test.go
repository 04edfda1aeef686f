package rt

import (
	"slices"
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/posix"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

func TestKindPredicates(t *testing.T) {
	browsixKinds := []Kind{NodeKind, GopherJSKind, EmSyncKind, EmAsyncKind, WasmKind}
	for _, k := range browsixKinds {
		if !k.IsBrowsix() {
			t.Errorf("%s should be a Browsix kind", k)
		}
	}
	for _, k := range []Kind{NativeKind, NodeHostKind} {
		if k.IsBrowsix() {
			t.Errorf("%s is a host kind", k)
		}
	}
	// §3.3: fork only on the Emscripten/Emterpreter runtime.
	for _, k := range []Kind{NodeKind, GopherJSKind, EmSyncKind, WasmKind, NativeKind} {
		if k.SupportsFork() {
			t.Errorf("%s must not support fork", k)
		}
	}
	if !EmAsyncKind.SupportsFork() {
		t.Error("em-async must support fork")
	}
}

func TestCostModelShape(t *testing.T) {
	for _, k := range []Kind{NativeKind, NodeHostKind, NodeKind, GopherJSKind, EmSyncKind, EmAsyncKind, WasmKind} {
		c := CostOf(k)
		if c.Mult <= 0 {
			t.Errorf("%s: nonpositive multiplier", k)
		}
		if c.Int64Mult < c.Mult {
			t.Errorf("%s: int64 work cheaper than regular work (%v < %v)", k, c.Int64Mult, c.Mult)
		}
		if k.IsBrowsix() && ArtifactSize(k) < 1000 {
			t.Errorf("%s: unrealistically small artifact", k)
		}
	}
	// Orderings the paper's evaluation depends on.
	if !(CostOf(NativeKind).Mult < CostOf(WasmKind).Mult) {
		t.Error("wasm must be slower than native")
	}
	if !(CostOf(WasmKind).Mult < CostOf(EmSyncKind).Mult) {
		t.Error("asm.js must be slower than wasm")
	}
	if !(CostOf(EmSyncKind).Mult < CostOf(EmAsyncKind).Mult) {
		t.Error("the Emterpreter must be much slower than asm.js (§3.2)")
	}
	if CostOf(EmAsyncKind).UnwindNs == 0 || CostOf(EmAsyncKind).RewindNs == 0 {
		t.Error("Emterpreter async syscalls must pay stack unwind/rewind (§4.3)")
	}
	if CostOf(EmSyncKind).HeapSize == 0 || CostOf(WasmKind).HeapSize == 0 {
		t.Error("sync-transport kinds need a SharedArrayBuffer heap")
	}
}

func TestCostOfUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CostOf(Kind("cobol"))
}

func TestLoaderRejects(t *testing.T) {
	sim := sched.New()
	sys := browser.NewSystem(sim, browser.Chrome())
	loader := Loader(sys)

	if _, err := loader([]byte("not an executable")); err != abi.ENOEXEC {
		t.Fatalf("garbage: %v, want ENOEXEC", err)
	}
	if _, err := loader(posix.Executable("no-such-program-zzz", "node", 256)); err != abi.ENOENT {
		t.Fatalf("unknown program: %v, want ENOENT", err)
	}
	if _, err := loader(posix.Executable("sh", "native", 256)); err != abi.ENOEXEC {
		t.Fatalf("host kind in executable: %v, want ENOEXEC", err)
	}
}

func TestLoaderAcceptsRegistered(t *testing.T) {
	posix.Register(&posix.Program{Name: "rt-test-prog", Main: func(posix.Proc) int { return 0 }})
	sim := sched.New()
	sys := browser.NewSystem(sim, browser.Chrome())
	loader := Loader(sys)
	for _, k := range []Kind{NodeKind, GopherJSKind, EmSyncKind, EmAsyncKind, WasmKind} {
		main, err := loader(posix.Executable("rt-test-prog", string(k), 512))
		if err != abi.OK || main == nil {
			t.Errorf("kind %s: %v", k, err)
		}
	}
}

func TestArtifactSizes(t *testing.T) {
	b := Artifact("rt-test-prog", NodeKind)
	if len(b) != ArtifactSize(NodeKind) {
		t.Fatalf("artifact size %d != modelled size %d", len(b), ArtifactSize(NodeKind))
	}
	name, kind, ok := posix.ParseExecutable(b)
	if !ok || name != "rt-test-prog" || kind != string(NodeKind) {
		t.Fatalf("parsed %q %q %v", name, kind, ok)
	}
	// One artifact per (program, runtime) per process: a second call
	// returns the same backing bytes, a different runtime does not.
	if again := Artifact("rt-test-prog", NodeKind); &again[0] != &b[0] {
		t.Fatal("Artifact rebuilt a cached artifact")
	}
	if w := Artifact("rt-test-prog", WasmKind); len(w) != ArtifactSize(WasmKind) || &w[0] == &b[0] {
		t.Fatal("Artifact shared bytes across runtimes")
	}
}

func TestHostRunUnknownProgram(t *testing.T) {
	sim := sched.New()
	sim.MaxSteps = 1000
	res := RunHost(sim, nil, NativeKind, []string{"never-registered"}, nil, "/")
	if res.Code != 127 {
		t.Fatalf("code = %d, want 127", res.Code)
	}
}

// stubBoot boots prog as a WasmKind worker against a stub kernel that
// answers every call frame but exit with the errno reply returns for its
// trap, and returns the exit status.
func stubBoot(prog *posix.Program, init map[string]browser.Value, reply func(trap int) abi.Errno) (exit int) {
	sim := sched.New()
	sys := browser.NewSystem(sim, browser.Chrome())
	url := sys.CreateObjectURL([]byte("stub"))
	exit = -1
	sim.Post(sys.Main.Sched(), 0, func() {
		w := sys.NewWorker(sys.Main, url, func(w *browser.Worker) { bootWorker(sys, w, prog, WasmKind) })
		w.OnMessage = func(v browser.Value) {
			f := v.(*abi.CallFrame)
			if f.Trap == abi.SYS_exit {
				exit = int(f.Args.Int[0])
				return
			}
			res := abi.Result{Err: reply(f.Trap)}
			if res.Err != abi.OK {
				res.Ret = -1
			}
			w.PostMessage(&abi.ReplyFrame{ID: f.ID, Trap: f.Trap, Res: res})
		}
		w.PostMessage(init)
	})
	sim.Run()
	return exit
}

// TestRefusedPersonalityFailsBoot: a synchronous runtime has no
// transport without the rings its personality registers, so a kernel
// that refuses the personality sees the boot exit with status 127,
// after that one call and before main runs.
func TestRefusedPersonalityFailsBoot(t *testing.T) {
	ran := false
	prog := &posix.Program{Name: "t-personality-refused", Main: func(posix.Proc) int { ran = true; return 0 }}
	var traps []int
	exit := stubBoot(prog, map[string]browser.Value{"type": "init", "pid": int64(2)}, func(trap int) abi.Errno {
		traps = append(traps, trap)
		return abi.EINVAL
	})
	if exit != 127 || ran {
		t.Fatalf("exit %d, main ran %v; want 127 without main", exit, ran)
	}
	if len(traps) != 1 || traps[0] != abi.SYS_personality {
		t.Fatalf("registration calls %v, want [personality]", traps)
	}
}

// TestSyncBootRegistersOnce: a cold sync boot and a clone boot from a
// snapshot image each register with exactly one call, personality,
// before main runs; a first boot asked to capture adds snapcap.
func TestSyncBootRegistersOnce(t *testing.T) {
	img := snapshot.NewImage("/t-image")
	img.SetHeap(nil, make([]byte, CostOf(WasmKind).HeapSize))
	cases := []struct {
		name string
		init map[string]browser.Value
		want []int
	}{
		{"cold", map[string]browser.Value{}, []int{abi.SYS_personality}},
		{"capture", map[string]browser.Value{"snapcap": int64(1)}, []int{abi.SYS_personality, abi.SYS_snapcap}},
		{"clone", map[string]browser.Value{"snapimage": img, "snaptracker": snapshot.NewTracker(img, img.NumPages())}, []int{abi.SYS_personality}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var traps, before []int
			prog := &posix.Program{Name: "t-register-" + c.name, Main: func(posix.Proc) int {
				before = slices.Clone(traps)
				return 0
			}}
			c.init["type"], c.init["pid"] = "init", int64(2)
			exit := stubBoot(prog, c.init, func(trap int) abi.Errno {
				traps = append(traps, trap)
				return abi.OK
			})
			if exit != 0 || !slices.Equal(before, c.want) || !slices.Equal(traps, c.want) {
				t.Fatalf("exit %d, calls before main %v (all %v); want exit 0 after %v", exit, before, traps, c.want)
			}
		})
	}
}
