package rt

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/posix"
	"repro/internal/sched"
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

// TestRefusedRingFailsBoot: a synchronous runtime has no transport
// without its ring, so a kernel that refuses the ring registration sees
// the boot exit with status 127 before main runs.
func TestRefusedRingFailsBoot(t *testing.T) {
	sim := sched.New()
	sys := browser.NewSystem(sim, browser.Chrome())
	ran := false
	prog := &posix.Program{Name: "t-ring-refused", Main: func(posix.Proc) int { ran = true; return 0 }}
	url := sys.CreateObjectURL([]byte("stub"))
	exit, calls := -1, []string{}
	sim.Post(sys.Main.Sched(), 0, func() {
		w := sys.NewWorker(sys.Main, url, func(w *browser.Worker) { bootWorker(sys, w, prog, WasmKind) })
		w.OnMessage = func(v browser.Value) {
			if f, ok := v.(*abi.CallFrame); ok && f.Trap == abi.SYS_exit {
				exit = int(f.Args.Int[0])
				return
			}
			m := v.(map[string]browser.Value)
			name := browser.GetString(m, "name")
			calls = append(calls, name)
			errno := abi.OK
			if name == "ring" {
				errno = abi.EINVAL
			}
			w.PostMessage(map[string]browser.Value{"type": "reply", "id": m["id"], "ret": []browser.Value{int64(0), int64(errno)}})
		}
		w.PostMessage(map[string]browser.Value{"type": "init", "pid": int64(2)})
	})
	sim.Run()
	if exit != 127 || ran {
		t.Fatalf("exit %d, main ran %v; want 127 without main", exit, ran)
	}
	if len(calls) != 2 || calls[0] != "personality" || calls[1] != "ring" {
		t.Fatalf("registration calls %v, want [personality ring]", calls)
	}
}
