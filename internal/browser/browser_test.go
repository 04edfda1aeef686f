package browser

import (
	"testing"

	"repro/internal/sched"
)

func newSys() *System {
	sim := sched.New()
	sim.MaxSteps = 1_000_000
	return NewSystem(sim, Chrome())
}

func TestCloneDeepCopies(t *testing.T) {
	orig := map[string]Value{
		"name": "open",
		"args": []Value{int64(3), "path", []byte{1, 2, 3}},
	}
	c, bytes := Clone(orig)
	if bytes <= 0 {
		t.Fatal("clone reported zero bytes")
	}
	cm := c.(map[string]Value)
	// Mutating the clone's byte array must not affect the original.
	cm["args"].([]Value)[2].([]byte)[0] = 99
	if orig["args"].([]Value)[2].([]byte)[0] != 1 {
		t.Fatal("clone aliases original byte slice")
	}
}

func TestCloneSharesSAB(t *testing.T) {
	sab := NewSAB(16)
	c, _ := Clone(map[string]Value{"heap": sab})
	got := c.(map[string]Value)["heap"].(*SAB)
	if got != sab {
		t.Fatal("SAB must be shared by reference, not cloned")
	}
}

func TestCloneRejectsForeignTypes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected DataCloneError panic")
		}
	}()
	Clone(struct{ x int }{1})
}

func TestWorkerMessageRoundTrip(t *testing.T) {
	s := newSys()
	url := s.CreateObjectURL([]byte("// worker script"))
	var fromWorker, fromParent Value
	var w *Worker
	s.Sim.Post(s.Main.Sched(), 0, func() {
		w = s.NewWorker(s.Main, url, func(w *Worker) {
			w.Ctx.OnMessage = func(v Value) {
				fromParent = v
				w.PostToParent(map[string]Value{"echo": v})
			}
		})
		w.OnMessage = func(v Value) { fromWorker = v }
		w.PostMessage("hello")
	})
	s.Sim.Run()
	if fromParent != "hello" {
		t.Fatalf("worker received %v, want hello", fromParent)
	}
	m, ok := fromWorker.(map[string]Value)
	if !ok || m["echo"] != "hello" {
		t.Fatalf("parent received %v", fromWorker)
	}
}

func TestWorkerStartupCostPrecedesFirstMessage(t *testing.T) {
	s := newSys()
	url := s.CreateObjectURL(make([]byte, 100_000)) // 100 KB runtime
	var workerStart int64
	s.Sim.Post(s.Main.Sched(), 0, func() {
		s.NewWorker(s.Main, url, func(w *Worker) {
			workerStart = w.Ctx.Now()
		})
	})
	s.Sim.Run()
	p := s.Profile
	min := p.WorkerSpawn + int64(float64(100_000)*p.ScriptEvalByteNs)
	if workerStart < min {
		t.Fatalf("worker main ran at %d, want >= %d (spawn+eval cost)", workerStart, min)
	}
}

func TestNestedWorkerPanics(t *testing.T) {
	s := newSys()
	url := s.CreateObjectURL([]byte("w"))
	panicked := false
	s.Sim.Post(s.Main.Sched(), 0, func() {
		s.NewWorker(s.Main, url, func(w *Worker) {
			defer func() { panicked = recover() != nil }()
			s.NewWorker(w.Ctx, url, func(*Worker) {})
		})
	})
	s.Sim.Run()
	if !panicked {
		t.Fatal("nested worker creation must panic (browsers lack nested workers)")
	}
}

func TestTerminateDropsPendingMessages(t *testing.T) {
	s := newSys()
	url := s.CreateObjectURL([]byte("w"))
	delivered := false
	s.Sim.Post(s.Main.Sched(), 0, func() {
		w := s.NewWorker(s.Main, url, func(w *Worker) {
			w.Ctx.OnMessage = func(Value) { delivered = true }
		})
		w.PostMessage("m1")
		w.Terminate()
	})
	s.Sim.Run()
	if delivered {
		t.Fatal("message delivered to terminated worker")
	}
}

func TestFutexWaitNotify(t *testing.T) {
	s := newSys()
	sab := NewSAB(64)
	url := s.CreateObjectURL([]byte("w"))
	var result WaitResult
	var wakeTime int64
	s.Sim.Post(s.Main.Sched(), 0, func() {
		s.NewWorker(s.Main, url, func(w *Worker) {
			g := s.Sim.NewG(w.Ctx.Sched(), "prog", func(any) {
				result = s.FutexWait(w.Ctx, sab, 0, 0, -1)
				wakeTime = w.Ctx.Now()
			})
			s.Sim.ResumeG(g, nil)
		})
	})
	// Kernel-side notify at t=50ms.
	s.Sim.Post(s.Main.Sched(), 50_000_000, func() {
		sab.Store32(0, 1)
		if n := s.FutexNotify(sab, 0, 1); n != 1 {
			t.Errorf("notify woke %d, want 1", n)
		}
	})
	s.Sim.Run()
	if result != WaitOK {
		t.Fatalf("wait result %q, want ok", result)
	}
	if wakeTime < 50_000_000 {
		t.Fatalf("woke at %d, before the notify", wakeTime)
	}
}

func TestFutexWaitNotEqual(t *testing.T) {
	s := newSys()
	sab := NewSAB(8)
	sab.Store32(0, 7)
	url := s.CreateObjectURL([]byte("w"))
	var result WaitResult
	s.Sim.Post(s.Main.Sched(), 0, func() {
		s.NewWorker(s.Main, url, func(w *Worker) {
			g := s.Sim.NewG(w.Ctx.Sched(), "prog", func(any) {
				result = s.FutexWait(w.Ctx, sab, 0, 0, -1)
			})
			s.Sim.ResumeG(g, nil)
		})
	})
	s.Sim.Run()
	if result != WaitNotEqual {
		t.Fatalf("result %q, want not-equal", result)
	}
}

func TestFutexWaitTimeout(t *testing.T) {
	s := newSys()
	sab := NewSAB(8)
	url := s.CreateObjectURL([]byte("w"))
	var result WaitResult
	var start, end int64
	s.Sim.Post(s.Main.Sched(), 0, func() {
		s.NewWorker(s.Main, url, func(w *Worker) {
			g := s.Sim.NewG(w.Ctx.Sched(), "prog", func(any) {
				start = w.Ctx.Now()
				result = s.FutexWait(w.Ctx, sab, 0, 0, 1_000_000)
				end = w.Ctx.Now()
			})
			s.Sim.ResumeG(g, nil)
		})
	})
	s.Sim.Run()
	if result != WaitTimedOut {
		t.Fatalf("result %q, want timed-out", result)
	}
	if end-start < 1_000_000 {
		t.Fatalf("timed out after %dns, want >= 1ms", end-start)
	}
}

func TestFutexWaitOnMainPanics(t *testing.T) {
	s := newSys()
	sab := NewSAB(8)
	panicked := false
	s.Sim.Post(s.Main.Sched(), 0, func() {
		defer func() { panicked = recover() != nil }()
		s.FutexWait(s.Main, sab, 0, 0, -1)
	})
	s.Sim.Run()
	if !panicked {
		t.Fatal("Atomics.wait on main thread must panic")
	}
}

func TestBlockedWorkerDefersMessages(t *testing.T) {
	// A worker blocked in Atomics.wait must not process incoming
	// messages until it wakes — this is the reason fork can't be
	// combined with sync syscalls (§3.2).
	s := newSys()
	sab := NewSAB(8)
	url := s.CreateObjectURL([]byte("w"))
	var trace []string
	s.Sim.Post(s.Main.Sched(), 0, func() {
		w := s.NewWorker(s.Main, url, func(w *Worker) {
			w.Ctx.OnMessage = func(v Value) { trace = append(trace, "msg:"+v.(string)) }
			g := s.Sim.NewG(w.Ctx.Sched(), "prog", func(any) {
				s.FutexWait(w.Ctx, sab, 0, 0, -1)
				trace = append(trace, "woke")
			})
			s.Sim.ResumeG(g, nil)
		})
		// Sent long before the notify below, but must arrive after wake.
		s.Main.SetTimeout(30_000_000, func() { w.PostMessage("early") })
	})
	s.Sim.Post(s.Main.Sched(), 90_000_000, func() {
		s.FutexNotify(sab, 0, -1)
	})
	s.Sim.Run()
	if len(trace) != 2 || trace[0] != "woke" || trace[1] != "msg:early" {
		t.Fatalf("trace = %v, want [woke msg:early]", trace)
	}
}

func TestPostMessageCostScalesWithSize(t *testing.T) {
	s := newSys()
	url := s.CreateObjectURL([]byte("w"))
	var small, large int64
	s.Sim.Post(s.Main.Sched(), 0, func() {
		w := s.NewWorker(s.Main, url, func(w *Worker) {
			w.Ctx.OnMessage = func(Value) {}
		})
		t0 := s.Main.Now()
		w.PostMessage([]byte{1})
		small = s.Main.Now() - t0
		t1 := s.Main.Now()
		w.PostMessage(make([]byte, 1<<20))
		large = s.Main.Now() - t1
	})
	s.Sim.Run()
	if large <= small {
		t.Fatalf("1MB send cost %d <= 1B cost %d; clone cost not charged", large, small)
	}
}

func TestBlobURLs(t *testing.T) {
	s := newSys()
	u1 := s.CreateObjectURL([]byte("abc"))
	u2 := s.CreateObjectURL([]byte("def"))
	if u1 == u2 {
		t.Fatal("blob URLs must be unique")
	}
	if got := s.LiveBlobs(); got != 2 {
		t.Fatalf("LiveBlobs = %d, want 2", got)
	}
	s.RevokeObjectURL(u1)
	if got := s.LiveBlobs(); got != 1 {
		t.Fatalf("LiveBlobs after revoke = %d, want 1", got)
	}
	s.RevokeObjectURL(u1) // revoking twice is a no-op, as in a browser
	s.RevokeObjectURL(u2)
	if got := s.LiveBlobs(); got != 0 {
		t.Fatalf("LiveBlobs after revoking both = %d, want 0", got)
	}
}

func TestSABAtomicOps(t *testing.T) {
	sab := NewSAB(16)
	sab.Store32(4, 42)
	if v := sab.Load32(4); v != 42 {
		t.Fatalf("Load32 = %d, want 42", v)
	}
}

func TestChromeVsFirefoxMessageLatency(t *testing.T) {
	// The meme-generator experiment depends on Firefox messages being
	// cheaper than Chrome's.
	ch, ff := Chrome(), Firefox()
	if ff.PostMessageLatency >= ch.PostMessageLatency {
		t.Fatal("profile calibration: Firefox postMessage should be faster than Chrome")
	}
	if !ch.SupportsSharedMemory() || ff.SupportsSharedMemory() {
		t.Fatal("only Chrome supported SharedArrayBuffer at paper time")
	}
}

func TestSetTimeout(t *testing.T) {
	s := newSys()
	var firedAt int64
	s.Sim.Post(s.Main.Sched(), 0, func() {
		s.Main.SetTimeout(5_000_000, func() { firedAt = s.Main.Now() })
	})
	s.Sim.Run()
	if firedAt < 5_000_000 {
		t.Fatalf("timer fired at %d, want >= 5ms", firedAt)
	}
}

func TestWorkerPriorityDefault(t *testing.T) {
	s := newSys()
	url := s.CreateObjectURL([]byte("w"))
	var w *Worker
	s.Sim.Post(s.Main.Sched(), 0, func() {
		w = s.NewWorker(s.Main, url, func(*Worker) {})
	})
	s.Sim.Run()
	if w.Ctx.Sched().Nice() != 0 {
		t.Fatal("default priority should be 0")
	}
	w.SetPriority(7)
	if w.Ctx.Sched().Nice() != 7 {
		t.Fatal("SetPriority not applied")
	}
}

// TestNewSABReusesReleasedZeroed: System.NewSAB hands back a released
// buffer of the same length with every page a write was recorded in
// (MarkDirty, Store32) zeroed, the buffer's last partial page included,
// and no tracker or futex waiter left over. Other lengths, and a second
// request while the first is out, get fresh buffers. A buffer released
// twice panics.
func TestNewSABReusesReleasedZeroed(t *testing.T) {
	const n = 5*heapPage + 100
	sys := newSys()
	sab := sys.NewSAB(n)
	writes := [][2]int{{0, 1}, {heapPage - 2, 4}, {3*heapPage + 7, 2 * heapPage}, {n - 3, 3}}
	for _, w := range writes {
		for i := w[0]; i < w[0]+w[1]; i++ {
			sab.Bytes()[i] = 0xAB
		}
		sab.MarkDirty(w[0], w[1])
	}
	sab.Store32(2*heapPage+8, 0xFFFFFFFF)
	sab.SetDirtyTracker(nopTracker{})
	sab.waiters = append(sab.waiters, futexWaiter{off: 0})
	sys.ReleaseSAB(sab)

	if other := sys.NewSAB(n + 1); other == sab {
		t.Fatal("a buffer of another length was reused")
	}
	again := sys.NewSAB(n)
	if again != sab {
		t.Fatal("the released buffer was not reused")
	}
	for i, c := range again.Bytes() {
		if c != 0 {
			t.Fatalf("byte %d of the reused buffer is %#x, want 0", i, c)
		}
	}
	if again.tracker != nil || len(again.waiters) != 0 {
		t.Fatal("the reused buffer kept its tracker or waiters")
	}
	if fresh := sys.NewSAB(n); fresh == again {
		t.Fatal("one buffer was handed out twice")
	}
	sys.ReleaseSAB(again)
	defer func() {
		if recover() == nil {
			t.Fatal("a second release did not panic")
		}
	}()
	sys.ReleaseSAB(again)
}

type nopTracker struct{}

func (nopTracker) MarkDirty(off, n int) {}
