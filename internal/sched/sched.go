// Package sched implements a deterministic discrete-event simulator that
// models the execution substrate Browsix runs on: a set of single-threaded
// JavaScript execution contexts (the main browser thread plus one context
// per Web Worker), each with its own event queue and virtual clock.
//
// Determinism is the point: the paper's measurements were taken on real
// browsers; our reproduction replaces the browser with a simulator whose
// costs are explicit and calibrated (see internal/browser.Profile), so
// every experiment is exactly reproducible.
//
// Concurrency model: exactly one goroutine runs at a time, coordinated by
// an explicit token hand-off, so the simulation is sequential and
// deterministic even though blocking program code (coroutines, see G) is
// expressed in ordinary straight-line Go. This mirrors the browser: each
// context is single-threaded; contexts interleave.
//
// Time model: each context has its own clock (Ctx.Now). Running an event
// advances the clock of the context it runs on by whatever costs the
// handler charges (Charge). An event posted at time t to context c starts
// executing at max(t, c.now): contexts are sequential, so an event queued
// behind a long task starts late, exactly like a busy JS event loop.
package sched

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Event is a unit of work delivered to a context at (no earlier than) a
// virtual time. Events model postMessage deliveries, timer callbacks, and
// internal wake-ups.
type event struct {
	at  int64 // earliest virtual time the event may run
	seq uint64
	fn  func()
}

// eventHeap is a binary min-heap of events ordered by (at, seq). seq
// breaks ties FIFO so the simulation is deterministic; it is unique per
// Sim, so the order events pop in does not depend on the heap's shape.
// It is typed, so pushing and popping never box an event into an
// interface.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the earliest event. The vacated slot is
// zeroed so the backing array does not keep the popped closure (and
// whatever it captured) alive.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	e := q[0]
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return e
}

// Ctx is one single-threaded execution context (the main thread or one Web
// Worker). Events targeted at a context run one at a time on it, in
// timestamp order; a context that is futex-blocked (Atomics.wait) defers
// its events until it wakes, as a blocked worker thread would.
type Ctx struct {
	sim     *Sim
	name    string
	id      int
	now     int64
	q       eventHeap
	blocked bool // blocked in a futex wait; events deferred
	dead    bool // terminated worker; events dropped

	// nice is the context's scheduling priority (higher = lower
	// priority, like Unix nice). Browsers provide no such control for
	// Web Workers — §6 of the paper proposes it; this simulator
	// implements the proposal: among events ready at the same instant,
	// lower-nice contexts run first.
	nice int

	// wake is a pending futex wake-up (or timeout). It takes priority
	// over queued events at the same instant because Atomics.wait
	// returning resumes the *current* task before the event loop runs.
	wake *wakeup

	// gs tracks coroutines created on this context so KillCtx can unwind
	// them (their deferred cleanup runs with ErrKilled).
	gs []*G
}

type wakeup struct {
	at int64
	g  *G
	v  any
}

// Name returns the context's diagnostic name.
func (c *Ctx) Name() string { return c.name }

// SetNice adjusts the context's scheduling priority (see nice).
func (c *Ctx) SetNice(nice int) { c.nice = nice }

// Nice returns the context's priority value.
func (c *Ctx) Nice() int { return c.nice }

// Now returns the context's local virtual time in nanoseconds.
func (c *Ctx) Now() int64 { return c.now }

// Dead reports whether the context has been terminated.
func (c *Ctx) Dead() bool { return c.dead }

// Blocked reports whether the context is blocked in a futex wait.
func (c *Ctx) Blocked() bool { return c.blocked }

// G is a coroutine: a parked Go goroutine representing a program stack
// inside a context (for example, a C program's call stack under the
// Emterpreter, or a Go program's goroutine under GopherJS). A G parks when
// it issues a blocking operation and is resumed by a later event.
type G struct {
	name   string
	ctx    *Ctx
	ch     chan any
	killed bool
	done   bool
}

// Name returns the coroutine's diagnostic name.
func (g *G) Name() string { return g.name }

// Ctx returns the context the coroutine belongs to.
func (g *G) Ctx() *Ctx { return g.ctx }

// Done reports whether the coroutine has finished.
func (g *G) Done() bool { return g.done }

// ErrKilled is the panic value delivered to a parked coroutine whose
// process has been terminated (e.g. SIGKILL, worker.terminate()). Runtimes
// recover it at the top of the program stack.
var ErrKilled = fmt.Errorf("sched: coroutine killed")

// Sim is the discrete-event simulator.
type Sim struct {
	ctxs   []*Ctx // live contexts, in creation order
	nextID int
	// frontier is the latest clock of any killed context, so Now does
	// not move back when a context leaves ctxs.
	frontier int64
	seq      uint64
	steps    uint64
	cur      *Ctx // context currently executing an event
	curG     *G   // coroutine currently holding the token, nil if scheduler code
	schedC   chan any

	// MaxSteps bounds Run to guard against runaway simulations in tests.
	// Zero means no bound.
	MaxSteps uint64
}

// New creates an empty simulator.
func New() *Sim {
	return &Sim{schedC: make(chan any)}
}

// NewCtx registers a new execution context.
func (s *Sim) NewCtx(name string) *Ctx {
	c := &Ctx{sim: s, name: name, id: s.nextID}
	s.nextID++
	s.ctxs = append(s.ctxs, c)
	return c
}

// KillCtx terminates a context: queued and future events are dropped, and
// every parked coroutine on it is unwound with ErrKilled so deferred
// cleanup runs. The context leaves the scan Step, Quiescent and
// BlockedCtxs make, and its clock folds into the frontier. Used for
// Worker.terminate().
func (s *Sim) KillCtx(c *Ctx) {
	if i := slices.Index(s.ctxs, c); i >= 0 {
		s.ctxs = slices.Delete(s.ctxs, i, i+1)
	}
	s.frontier = max(s.frontier, c.now)
	c.dead = true
	c.q = nil
	c.wake = nil
	c.blocked = false
	gs := c.gs
	c.gs = nil
	for _, g := range gs {
		if g.done {
			continue
		}
		g.killed = true
		if s.curG == g {
			// The coroutine being killed is the one running; it will
			// observe killed at its next Park.
			continue
		}
		s.ResumeG(g, nil)
	}
}

// Steps returns the number of events dispatched so far.
func (s *Sim) Steps() uint64 { return s.steps }

// Cur returns the context currently executing, or nil between events.
func (s *Sim) Cur() *Ctx { return s.cur }

// Post schedules fn to run on ctx no earlier than virtual time at. It is
// the primitive beneath postMessage delivery and timers.
func (s *Sim) Post(ctx *Ctx, at int64, fn func()) {
	if ctx.dead {
		return
	}
	s.seq++
	ctx.q.push(event{at: at, seq: s.seq, fn: fn})
}

// PostDelay schedules fn on ctx after d nanoseconds of the *sender's*
// current time (or the target's, when called from outside any context).
func (s *Sim) PostDelay(ctx *Ctx, d int64, fn func()) {
	base := ctx.now
	if s.cur != nil {
		base = s.cur.now
	}
	s.Post(ctx, base+d, fn)
}

// Charge advances the clock of the currently-running context by d
// nanoseconds, modelling CPU or copy cost inside the current task.
func (s *Sim) Charge(d int64) {
	if s.cur == nil {
		panic("sched: Charge outside event execution")
	}
	if d < 0 {
		panic("sched: negative charge")
	}
	s.cur.now += d
}

// Now returns the current context's virtual time. Outside event execution
// it returns the max clock across contexts (the frontier).
func (s *Sim) Now() int64 {
	if s.cur != nil {
		return s.cur.now
	}
	t := s.frontier
	for _, c := range s.ctxs {
		if c.now > t {
			t = c.now
		}
	}
	return t
}

// NewG creates a parked coroutine on ctx that will execute fn with the
// value passed to its first Resume. fn runs with the simulation token; it
// may call Park and Charge. When fn returns the coroutine is done.
func (s *Sim) NewG(ctx *Ctx, name string, fn func(first any)) *G {
	g := &G{name: name, ctx: ctx, ch: make(chan any)}
	ctx.gs = append(ctx.gs, g)
	go func() {
		first := <-g.ch
		defer func() {
			g.done = true
			if r := recover(); r != nil && r != ErrKilled {
				// Re-raising on the scheduler goroutine keeps the
				// failure visible; real panics are bugs.
				s.handoffPanic(r)
				return
			}
			s.curG = nil
			s.schedC <- nil
		}()
		if g.killed {
			panic(ErrKilled)
		}
		fn(first)
	}()
	return g
}

func (s *Sim) handoffPanic(r any) {
	s.curG = nil
	s.schedC <- panicValue{r}
}

type panicValue struct{ r any }

// ResumeG transfers control to a parked coroutine, delivering v as the
// result of its Park (or as the initial value for a fresh G). It must be
// called from scheduler context (inside an event handler, not from another
// G). Control returns here when the G parks again or finishes.
func (s *Sim) ResumeG(g *G, v any) {
	if s.curG != nil {
		panic("sched: ResumeG from within a coroutine; post an event instead")
	}
	if g.done {
		return
	}
	s.curG = g
	g.ch <- v
	out := <-s.schedC
	if pv, ok := out.(panicValue); ok {
		panic(pv.r)
	}
}

// Park suspends the current coroutine until someone resumes it, returning
// the value passed to ResumeG. If the coroutine's process is killed while
// parked, Park panics with ErrKilled (recovered by NewG).
func (s *Sim) Park() any {
	g := s.curG
	if g == nil {
		panic("sched: Park outside a coroutine")
	}
	s.curG = nil
	s.schedC <- nil
	v := <-g.ch
	if g.killed {
		panic(ErrKilled)
	}
	s.curG = g
	return v
}

// CurG returns the coroutine currently holding the token, or nil.
func (s *Sim) CurG() *G { return s.curG }

// KillG marks a coroutine killed. If it is parked it will panic with
// ErrKilled at its next resume; the scheduler resumes it immediately via an
// event so its deferred cleanup runs.
func (s *Sim) KillG(g *G) {
	if g == nil || g.done {
		return
	}
	g.killed = true
	if g.ctx.wake != nil && g.ctx.wake.g == g {
		g.ctx.wake = nil
		g.ctx.blocked = false
	}
	s.Post(g.ctx, g.ctx.now, func() { s.ResumeG(g, nil) })
}

// PostResume schedules an event on g's context that resumes g with v.
// It is the standard completion path for asynchronous system calls.
func (s *Sim) PostResume(g *G, at int64, v any) {
	s.Post(g.ctx, at, func() { s.ResumeG(g, v) })
}

// BlockCur marks the current context futex-blocked and parks the current
// coroutine. The context's event queue is deferred until WakeCtx. Returns
// the wake value.
func (s *Sim) BlockCur() any {
	c := s.cur
	if c == nil || s.curG == nil {
		panic("sched: BlockCur needs a running coroutine")
	}
	c.blocked = true
	v := s.Park()
	c.blocked = false
	return v
}

// WakeCtx schedules a wake-up of the coroutine g blocked on its context at
// virtual time at, delivering v. If a wake is already pending, the earlier
// one wins (a notify racing a timeout).
func (s *Sim) WakeCtx(g *G, at int64, v any) {
	c := g.ctx
	if c.dead {
		return
	}
	if c.wake != nil && c.wake.at <= at {
		return
	}
	c.wake = &wakeup{at: at, g: g, v: v}
}

// runnable returns, for each context, the earliest thing it could run and
// the virtual start time, or ok=false when idle.
func (c *Ctx) next() (start int64, isWake bool, ok bool) {
	if c.dead {
		return 0, false, false
	}
	if c.wake != nil {
		st := c.wake.at
		if c.now > st {
			st = c.now
		}
		return st, true, true
	}
	if c.blocked || len(c.q) == 0 {
		return 0, false, false
	}
	st := c.q[0].at
	if c.now > st {
		st = c.now
	}
	return st, false, true
}

// Step dispatches the single next event across all contexts. It returns
// false when the simulation is quiescent (nothing runnable anywhere).
func (s *Sim) Step() bool {
	var best *Ctx
	var bestStart int64
	var bestWake bool
	var bestSeq uint64
	for _, c := range s.ctxs {
		st, isWake, ok := c.next()
		if !ok {
			continue
		}
		var seq uint64
		if !isWake {
			seq = c.q[0].seq
		}
		better := best == nil || st < bestStart ||
			(st == bestStart && isWake && !bestWake) ||
			(st == bestStart && isWake == bestWake && c.nice < best.nice) ||
			(st == bestStart && isWake == bestWake && c.nice == best.nice && seq < bestSeq)
		if better {
			best, bestStart, bestWake, bestSeq = c, st, isWake, seq
		}
	}
	if best == nil {
		return false
	}
	s.steps++
	s.cur = best
	if bestWake {
		w := best.wake
		best.wake = nil
		best.blocked = false
		if best.now < bestStart {
			best.now = bestStart
		}
		s.ResumeG(w.g, w.v)
	} else {
		ev := best.q.pop()
		if best.now < ev.at {
			best.now = ev.at
		}
		ev.fn()
	}
	if best.dead {
		// Killed during its own event: later charges still count.
		s.frontier = max(s.frontier, best.now)
	}
	s.cur = nil
	return true
}

// Run dispatches events until the simulation is quiescent. It panics if
// MaxSteps is exceeded (runaway loop in a test).
func (s *Sim) Run() {
	start := s.steps
	for s.Step() {
		if s.MaxSteps > 0 && s.steps-start > s.MaxSteps {
			panic(fmt.Sprintf("sched: exceeded MaxSteps=%d; likely livelock\n%s", s.MaxSteps, s.Dump()))
		}
	}
}

// RunUntil dispatches events until cond() is true or the simulation is
// quiescent; it reports whether cond was met.
func (s *Sim) RunUntil(cond func() bool) bool {
	start := s.steps
	for !cond() {
		if !s.Step() {
			return cond()
		}
		if s.MaxSteps > 0 && s.steps-start > s.MaxSteps {
			panic(fmt.Sprintf("sched: exceeded MaxSteps=%d in RunUntil\n%s", s.MaxSteps, s.Dump()))
		}
	}
	return true
}

// Quiescent reports whether nothing is runnable.
func (s *Sim) Quiescent() bool {
	for _, c := range s.ctxs {
		if _, _, ok := c.next(); ok {
			return false
		}
	}
	return true
}

// BlockedCtxs returns the names of contexts stuck in a futex wait with no
// pending wake — the signature of a deadlock when the sim is quiescent.
func (s *Sim) BlockedCtxs() []string {
	var out []string
	for _, c := range s.ctxs {
		if !c.dead && c.blocked && c.wake == nil {
			out = append(out, c.name)
		}
	}
	sort.Strings(out)
	return out
}

// Dump renders scheduler state for diagnostics.
func (s *Sim) Dump() string {
	out := ""
	for _, c := range s.ctxs {
		out += fmt.Sprintf("ctx %q: now=%s q=%d blocked=%v dead=%v wake=%v\n",
			c.name, time.Duration(c.now), len(c.q), c.blocked, c.dead, c.wake != nil)
	}
	return out
}
