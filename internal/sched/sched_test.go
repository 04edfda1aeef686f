package sched

import (
	"fmt"
	"testing"
)

func TestEventOrderingByTime(t *testing.T) {
	s := New()
	c := s.NewCtx("main")
	var got []int
	s.Post(c, 30, func() { got = append(got, 3) })
	s.Post(c, 10, func() { got = append(got, 1) })
	s.Post(c, 20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if c.Now() != 30 {
		t.Fatalf("final clock = %d, want 30", c.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	c := s.NewCtx("main")
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Post(c, 5, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestChargeAdvancesClockAndDelaysLaterEvents(t *testing.T) {
	s := New()
	c := s.NewCtx("main")
	var secondStart int64
	s.Post(c, 0, func() { s.Charge(100) })
	s.Post(c, 10, func() { secondStart = c.Now() })
	s.Run()
	// The second event was due at t=10 but the context was busy until 100.
	if secondStart != 100 {
		t.Fatalf("second event started at %d, want 100", secondStart)
	}
}

func TestCrossContextClocksIndependent(t *testing.T) {
	s := New()
	a := s.NewCtx("a")
	b := s.NewCtx("b")
	s.Post(a, 0, func() { s.Charge(1000) })
	var bStart int64
	s.Post(b, 5, func() { bStart = b.Now() })
	s.Run()
	if bStart != 5 {
		t.Fatalf("context b start = %d; busy context a must not delay b", bStart)
	}
}

func TestPostDelayUsesSenderClock(t *testing.T) {
	s := New()
	a := s.NewCtx("a")
	b := s.NewCtx("b")
	var deliveredAt int64
	s.Post(a, 0, func() {
		s.Charge(50)
		s.PostDelay(b, 7, func() { deliveredAt = b.Now() })
	})
	s.Run()
	if deliveredAt != 57 {
		t.Fatalf("delivered at %d, want 57 (sender now 50 + 7)", deliveredAt)
	}
}

func TestCoroutineParkResume(t *testing.T) {
	s := New()
	c := s.NewCtx("w")
	var trace []string
	g := s.NewG(c, "prog", func(first any) {
		trace = append(trace, "start:"+first.(string))
		v := s.Park()
		trace = append(trace, "resumed:"+v.(string))
	})
	s.Post(c, 0, func() { s.ResumeG(g, "init") })
	s.Post(c, 10, func() { s.ResumeG(g, "reply") })
	s.Run()
	if len(trace) != 2 || trace[0] != "start:init" || trace[1] != "resumed:reply" {
		t.Fatalf("trace = %v", trace)
	}
	if !g.Done() {
		t.Fatal("coroutine not done")
	}
}

func TestCoroutineChargesAccrueToContext(t *testing.T) {
	s := New()
	c := s.NewCtx("w")
	g := s.NewG(c, "prog", func(any) {
		s.Charge(123)
	})
	s.Post(c, 0, func() { s.ResumeG(g, nil) })
	s.Run()
	if c.Now() != 123 {
		t.Fatalf("ctx clock = %d, want 123", c.Now())
	}
}

func TestPostResumeCompletesAsyncCall(t *testing.T) {
	s := New()
	w := s.NewCtx("worker")
	k := s.NewCtx("kernel")
	var result any
	var g *G
	g = s.NewG(w, "prog", func(any) {
		// issue "syscall": message to kernel, then park
		s.PostDelay(k, 3, func() {
			// kernel handles, replies after 2ns of work
			s.Charge(2)
			s.PostResume(g, s.Now()+3, 42)
		})
		result = s.Park()
	})
	s.Post(w, 0, func() { s.ResumeG(g, nil) })
	s.Run()
	if result != 42 {
		t.Fatalf("syscall result = %v, want 42", result)
	}
	if w.Now() != 8 { // 0 + deliver 3 + kernel 2 + reply 3
		t.Fatalf("worker clock = %d, want 8", w.Now())
	}
}

func TestBlockedContextDefersEvents(t *testing.T) {
	s := New()
	w := s.NewCtx("worker")
	k := s.NewCtx("kernel")
	var trace []string
	g := s.NewG(w, "prog", func(any) {
		trace = append(trace, "block")
		v := s.BlockCur()
		trace = append(trace, "woke:"+v.(string))
	})
	s.Post(w, 0, func() { s.ResumeG(g, nil) })
	// This message arrives while the worker is blocked; it must run only
	// after the wake, even though its timestamp is earlier.
	s.Post(w, 5, func() { trace = append(trace, "event") })
	s.Post(k, 10, func() { s.WakeCtx(g, 10, "ok") })
	s.Run()
	want := []string{"block", "woke:ok", "event"}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if w.Now() != 10 {
		t.Fatalf("worker woke at %d, want 10", w.Now())
	}
}

func TestWakeEarlierWins(t *testing.T) {
	s := New()
	w := s.NewCtx("worker")
	k := s.NewCtx("kernel")
	var got string
	g := s.NewG(w, "prog", func(any) {
		got = s.BlockCur().(string)
	})
	s.Post(w, 0, func() { s.ResumeG(g, nil) })
	s.Post(k, 1, func() {
		s.WakeCtx(g, 100, "timeout") // pre-armed timeout
		s.WakeCtx(g, 50, "notify")   // notify beats it
		s.WakeCtx(g, 70, "late")     // later than pending: ignored
	})
	s.Run()
	if got != "notify" {
		t.Fatalf("wake value = %q, want notify", got)
	}
	if w.Now() != 50 {
		t.Fatalf("woke at %d, want 50", w.Now())
	}
}

func TestQuiescenceAndDeadlockDetection(t *testing.T) {
	s := New()
	w := s.NewCtx("worker")
	g := s.NewG(w, "prog", func(any) {
		s.BlockCur() // nobody will ever wake us
	})
	s.Post(w, 0, func() { s.ResumeG(g, nil) })
	s.Run()
	if !s.Quiescent() {
		t.Fatal("expected quiescent")
	}
	blocked := s.BlockedCtxs()
	if len(blocked) != 1 || blocked[0] != "worker" {
		t.Fatalf("BlockedCtxs = %v, want [worker]", blocked)
	}
}

func TestKillG(t *testing.T) {
	s := New()
	w := s.NewCtx("worker")
	cleanedUp := false
	g := s.NewG(w, "prog", func(any) {
		defer func() { cleanedUp = true }()
		s.Park()
		t.Error("parked coroutine continued after kill")
	})
	s.Post(w, 0, func() { s.ResumeG(g, nil) })
	s.Post(w, 5, func() { s.KillG(g) })
	s.Run()
	if !cleanedUp {
		t.Fatal("killed coroutine's deferred cleanup did not run")
	}
	if !g.Done() {
		t.Fatal("killed coroutine not done")
	}
}

func TestKillCtxDropsEvents(t *testing.T) {
	s := New()
	w := s.NewCtx("worker")
	ran := false
	s.Post(w, 10, func() { ran = true })
	s.KillCtx(w)
	s.Post(w, 20, func() { ran = true })
	s.Run()
	if ran {
		t.Fatal("event ran on dead context")
	}
	if !w.Dead() {
		t.Fatal("context not dead")
	}
}

// TestKillCtxLeavesScan: a killed context leaves the scan list, the
// others keep their order (and so their tie-breaks), ids stay unique,
// and the frontier Now reports does not move back.
func TestKillCtxLeavesScan(t *testing.T) {
	s := New()
	a, b, c := s.NewCtx("a"), s.NewCtx("b"), s.NewCtx("c")
	s.Post(b, 0, func() { s.Charge(500) })
	s.Run()
	if s.Now() != 500 {
		t.Fatalf("frontier %d, want 500", s.Now())
	}
	s.KillCtx(b)
	s.KillCtx(b) // idempotent
	if len(s.ctxs) != 2 || s.ctxs[0] != a || s.ctxs[1] != c {
		t.Fatalf("live contexts %v, want [a c]", s.Dump())
	}
	if s.Now() != 500 {
		t.Fatalf("frontier moved back to %d after the kill", s.Now())
	}
	d := s.NewCtx("d")
	if d.id == a.id || d.id == b.id || d.id == c.id {
		t.Fatalf("new context reused id %d", d.id)
	}
	// Same-instant events on a, c and d still run in posting order.
	var order []string
	for _, x := range []*Ctx{d, c, a} {
		x := x
		s.Post(x, 1000, func() { order = append(order, x.name) })
	}
	s.Run()
	if fmt.Sprint(order) != "[d c a]" {
		t.Fatalf("order %v, want [d c a]", order)
	}
}

// TestKillCtxSelfChargeCounts: a context killed while it runs may keep
// charging until its event returns; the frontier includes those charges.
func TestKillCtxSelfChargeCounts(t *testing.T) {
	s := New()
	w := s.NewCtx("worker")
	s.Post(w, 100, func() {
		s.KillCtx(w)
		s.Charge(50)
	})
	s.Run()
	if len(s.ctxs) != 0 || s.Now() != 150 {
		t.Fatalf("live=%d now=%d, want 0 and 150", len(s.ctxs), s.Now())
	}
}

func TestKillCtxWhileFutexBlocked(t *testing.T) {
	s := New()
	w := s.NewCtx("worker")
	k := s.NewCtx("kernel")
	g := s.NewG(w, "prog", func(any) {
		s.BlockCur()
		t.Error("blocked coroutine resumed after ctx kill")
	})
	s.Post(w, 0, func() { s.ResumeG(g, nil) })
	s.Post(k, 5, func() { s.KillCtx(w) })
	s.Run()
	if !s.Quiescent() {
		t.Fatal("not quiescent after ctx kill")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	c := s.NewCtx("main")
	n := 0
	for i := 0; i < 10; i++ {
		s.Post(c, int64(i), func() { n++ })
	}
	ok := s.RunUntil(func() bool { return n >= 5 })
	if !ok || n != 5 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v, want 5/true", n, ok)
	}
	s.Run()
	if n != 10 {
		t.Fatalf("after Run n=%d, want 10", n)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	s := New()
	c := s.NewCtx("main")
	s.MaxSteps = 100
	var loop func()
	loop = func() { s.Post(c, c.Now()+1, loop) }
	s.Post(c, 0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected MaxSteps panic")
		}
	}()
	s.Run()
}

func TestNestedResumeGPanics(t *testing.T) {
	s := New()
	c := s.NewCtx("main")
	g1 := s.NewG(c, "g1", func(any) {})
	g2 := s.NewG(c, "g2", func(any) {
		defer func() {
			if recover() == nil {
				t.Error("ResumeG inside coroutine should panic")
			}
		}()
		s.ResumeG(g1, nil)
	})
	s.Post(c, 0, func() { s.ResumeG(g2, nil) })
	s.Run()
	// g1 was never legitimately started; resume it so it finishes.
	s.Post(c, 1, func() { s.ResumeG(g1, nil) })
	s.Run()
}

func TestNowFrontier(t *testing.T) {
	s := New()
	a := s.NewCtx("a")
	b := s.NewCtx("b")
	s.Post(a, 100, func() {})
	s.Post(b, 40, func() {})
	s.Run()
	if s.Now() != 100 {
		t.Fatalf("frontier = %d, want 100", s.Now())
	}
}
