package sched

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// refSim is a reference model of the scheduler's event path: every
// context keeps its pending events in a plain slice and the earliest is
// found by a linear scan for the least (at, seq). Step's choice across
// contexts (start time, then nice, then seq) is modelled as in Sim.Step.
type refSim struct {
	seq  uint64
	cur  int // running context, -1 between events
	now  []int64
	nice []int
	q    [][]refEvent
}

type refEvent struct {
	at  int64
	seq uint64
	id  int
}

func (r *refSim) post(ctx int, at int64, id int) {
	r.seq++
	r.q[ctx] = append(r.q[ctx], refEvent{at, r.seq, id})
}

func (r *refSim) postDelay(ctx int, d int64, id int) {
	base := r.now[ctx]
	if r.cur >= 0 {
		base = r.now[r.cur]
	}
	r.post(ctx, base+d, id)
}

// earliest returns the index of ctx's least (at, seq) event.
func (r *refSim) earliest(ctx int) int {
	best := 0
	for i, e := range r.q[ctx] {
		b := r.q[ctx][best]
		if e.at < b.at || e.at == b.at && e.seq < b.seq {
			best = i
		}
	}
	return best
}

// step pops the next event and returns its context and id.
func (r *refSim) step() (ctx, id int, ok bool) {
	ctx = -1
	var bestStart int64
	var bestSeq uint64
	for c := range r.q {
		if len(r.q[c]) == 0 {
			continue
		}
		e := r.q[c][r.earliest(c)]
		st := max(e.at, r.now[c])
		if ctx < 0 || st < bestStart ||
			st == bestStart && r.nice[c] < r.nice[ctx] ||
			st == bestStart && r.nice[c] == r.nice[ctx] && e.seq < bestSeq {
			ctx, bestStart, bestSeq = c, st, e.seq
		}
	}
	if ctx < 0 {
		return 0, 0, false
	}
	i := r.earliest(ctx)
	e := r.q[ctx][i]
	r.q[ctx] = slices.Delete(r.q[ctx], i, i+1)
	r.now[ctx] = max(r.now[ctx], e.at)
	return ctx, e.id, true
}

// TestEventQueueMatchesReference: seeded random interleavings of Post,
// PostDelay and Step over several contexts — with many equal times, and
// events that charge time and post further events — run events in
// exactly the order the reference model does, with equal clocks.
func TestEventQueueMatchesReference(t *testing.T) {
	const nctx = 4
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ctxs := make([]*Ctx, nctx)
		ref := &refSim{cur: -1, now: make([]int64, nctx), nice: make([]int, nctx), q: make([][]refEvent, nctx)}
		for i := range ctxs {
			ctxs[i] = s.NewCtx("c")
			nice := rng.Intn(2)
			ctxs[i].SetNice(nice)
			ref.nice[i] = nice
		}
		// An event's behaviour is a function of its id alone, so both
		// sides run the same event the same way: charge some time, and
		// every third event posts a follow-up.
		cost := func(id int) int64 { return int64(id%4) * 100 }
		var got, want []int
		nextID := 0
		var simEvent func(id int) func()
		simEvent = func(id int) func() {
			return func() {
				got = append(got, id)
				s.Charge(cost(id))
				if id%3 == 0 {
					nextID++
					s.PostDelay(ctxs[id%nctx], int64(id%5)*100, simEvent(nextID))
				}
			}
		}
		refID := 0
		refRun := func(ctx, id int) {
			want = append(want, id)
			ref.cur = ctx
			ref.now[ctx] += cost(id)
			if id%3 == 0 {
				refID++
				ref.postDelay(id%nctx, int64(id%5)*100, refID)
			}
			ref.cur = -1
		}
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(5); {
			case k < 2:
				c, at := rng.Intn(nctx), int64(rng.Intn(8))*100
				nextID++
				refID++
				s.Post(ctxs[c], at, simEvent(nextID))
				ref.post(c, at, refID)
			case k < 3:
				c, d := rng.Intn(nctx), int64(rng.Intn(4))*100
				nextID++
				refID++
				s.PostDelay(ctxs[c], d, simEvent(nextID))
				ref.postDelay(c, d, refID)
			default:
				ran := s.Step()
				ctx, id, ok := ref.step()
				if ran != ok {
					t.Fatalf("seed %d op %d: Step ran=%v, reference ran=%v", seed, op, ran, ok)
				}
				if ok {
					refRun(ctx, id)
				}
			}
		}
		for s.Step() {
		}
		for {
			ctx, id, ok := ref.step()
			if !ok {
				break
			}
			refRun(ctx, id)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: event order diverged\nsim: %v\nref: %v", seed, got, want)
		}
		for i, c := range ctxs {
			if c.Now() != ref.now[i] {
				t.Fatalf("seed %d: ctx %d clock %d, reference %d", seed, i, c.Now(), ref.now[i])
			}
		}
	}
}

// TestPostStepAllocFree: on a warmed queue, posting a pre-built func,
// or a pre-bound handler with a pointer argument, and stepping it
// allocates nothing; and the two kinds of event share one FIFO order.
func TestPostStepAllocFree(t *testing.T) {
	s := New()
	c := s.NewCtx("c")
	fn := func() {}
	var got []int
	h := func(v any) { got = append(got, *v.(*int)) }
	for i := 0; i < 64; i++ {
		s.Post(c, int64(i), fn)
		s.PostArg(c, int64(i), h, &i)
	}
	s.Run()
	if n := testing.AllocsPerRun(1000, func() {
		s.Post(c, c.Now(), fn)
		s.Step()
	}); n != 0 {
		t.Fatalf("Post+Step allocated %v times per run, want 0", n)
	}
	arg := new(int)
	got = make([]int, 0, 4)
	if n := testing.AllocsPerRun(1000, func() {
		s.PostArg(c, c.Now(), h, arg)
		s.Step()
		got = got[:0]
	}); n != 0 {
		t.Fatalf("PostArg+Step allocated %v times per run, want 0", n)
	}

	// Same-instant events run in posting order whichever way they were
	// posted.
	var order []int
	at := c.Now() + 10
	for i := 0; i < 6; i++ {
		i := i
		if i%2 == 0 {
			s.Post(c, at, func() { order = append(order, i) })
		} else {
			s.PostDelayArg(c, 10, func(v any) { order = append(order, v.(int)) }, i)
		}
	}
	s.Run()
	if !slices.Equal(order, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("mixed events ran in order %v", order)
	}
}

// TestPoppedEventCollectable: once an event has run, the queue keeps no
// reference to its closure, so what the closure captured can be
// collected while the context lives on.
func TestPoppedEventCollectable(t *testing.T) {
	s := New()
	c := s.NewCtx("c")
	collected := make(chan struct{})
	func() {
		payload := new([256]byte)
		runtime.SetFinalizer(payload, func(*[256]byte) { close(collected) })
		s.Post(c, 0, func() { payload[0]++ })
	}()
	s.Step()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(s)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(s)
	t.Fatal("a popped event's closure is still reachable from its context's queue")
}
