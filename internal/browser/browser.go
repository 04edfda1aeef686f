package browser

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/sched"
)

// System is one simulated browser: a main context, a set of Web Workers
// and a Blob URL store. Atomics waiters are held on the SharedArrayBuffer
// they wait on.
type System struct {
	Sim     *sched.Sim
	Profile Profile
	Main    *Context

	blobSeq int
	blobs   map[string][]byte

	// heaps are released SharedArrayBuffers that NewSAB hands out again:
	// at most as many as were once live at the same time.
	heaps []*SAB
}

// Context is a single-threaded JavaScript execution context.
type Context struct {
	sys       *System
	sctx      *sched.Ctx
	isWorker  bool
	OnMessage func(v Value) // message handler (the context's onmessage)
	worker    *Worker       // non-nil if this context belongs to a worker
}

// Worker is the parent-side handle for a Web Worker, like the JS Worker
// object: the parent posts messages to it and receives messages from it.
type Worker struct {
	sys        *System
	parent     *Context
	Ctx        *Context // the worker's own execution context
	OnMessage  func(v Value)
	terminated bool

	// toWorker and toParent deliver one message in each direction; they
	// are bound once, so a message event carries only its clone.
	toWorker, toParent func(Value)
}

// NewSystem creates a browser with the given cost profile.
func NewSystem(sim *sched.Sim, p Profile) *System {
	s := &System{
		Sim:     sim,
		Profile: p,
		blobs:   map[string][]byte{},
	}
	s.Main = &Context{sys: s, sctx: sim.NewCtx("main")}
	return s
}

// Sched returns the scheduler context backing this JS context.
func (c *Context) Sched() *sched.Ctx { return c.sctx }

// System returns the owning browser system.
func (c *Context) System() *System { return c.sys }

// IsWorker reports whether this context belongs to a Web Worker.
func (c *Context) IsWorker() bool { return c.isWorker }

// Now returns the context's virtual clock.
func (c *Context) Now() int64 { return c.sctx.Now() }

// Charge adds CPU cost to the context (must be the running context).
func (c *Context) Charge(d int64) { c.sys.Sim.Charge(d) }

// SetTimeout schedules fn on this context after d nanoseconds, honouring
// the profile's timer clamp.
func (c *Context) SetTimeout(d int64, fn func()) {
	if d < c.sys.Profile.TimerMin {
		d = c.sys.Profile.TimerMin
	}
	c.sys.Sim.PostDelay(c.sctx, d, fn)
}

// post delivers a structured-cloned message across w's channel: to the
// worker's context when toWorker, else to its parent. It charges the
// sender for serialization and the clone and delays delivery by the
// message-hop latency. Each message is its own event, carrying the
// clone to the channel's bound delivery function. The receiving side's
// OnMessage is read when the message is delivered, not when it is sent,
// as in JS.
func (s *System) post(w *Worker, toWorker bool, v Value) {
	if w.terminated {
		return
	}
	to, deliver := w.parent, w.toParent
	if toWorker {
		to, deliver = w.Ctx, w.toWorker
	}
	if to.sctx.Dead() {
		return
	}
	clone, bytes := Clone(v)
	cost := s.Profile.PostMessageSend + int64(float64(bytes)*s.Profile.CloneByteNs)
	s.Sim.Charge(cost)
	s.Sim.PostDelayArg(to.sctx, s.Profile.PostMessageLatency, deliver, clone)
}

// deliverToWorker runs the worker's onmessage on one message.
func (w *Worker) deliverToWorker(v Value) {
	if on := w.Ctx.OnMessage; on != nil {
		on(v)
	}
}

// deliverToParent runs the parent-side handler on one message.
func (w *Worker) deliverToParent(v Value) {
	if on := w.OnMessage; on != nil {
		on(v)
	}
}

// PostMessage sends a message from the worker's parent to the worker
// (worker.postMessage in JS).
func (w *Worker) PostMessage(v Value) { w.sys.post(w, true, v) }

// PostToParent sends a message from inside the worker to its parent
// (self.postMessage in JS). Delivery invokes the parent-side
// Worker.OnMessage handler.
func (w *Worker) PostToParent(v Value) { w.sys.post(w, false, v) }

// NewWorker spawns a Web Worker running the script at url (usually a Blob
// URL). main is the script's top-level code: it runs once on the new
// context before any messages are delivered. The script source bytes are
// fetched from the URL store to charge parse/eval cost, mirroring the cost
// of loading a multi-hundred-KB Browsix runtime.
//
// Nested workers are not supported (Chrome and Safari did not implement
// them, §3.3): calling NewWorker from a worker context panics, forcing the
// kernel — which lives on the main thread — to create all workers, exactly
// as Browsix does.
func (s *System) NewWorker(parent *Context, url string, main func(w *Worker)) *Worker {
	if parent.isWorker {
		panic("browser: nested Workers are not supported (spawn must be proxied via the main thread)")
	}
	script, ok := s.blobs[url]
	if !ok {
		panic(fmt.Sprintf("browser: worker URL %q not found", url))
	}
	s.Sim.Charge(s.Profile.WorkerSpawnParent)
	w := &Worker{sys: s, parent: parent}
	w.toWorker, w.toParent = w.deliverToWorker, w.deliverToParent
	ctx := &Context{sys: s, sctx: s.Sim.NewCtx("worker:" + url), isWorker: true, worker: w}
	w.Ctx = ctx
	startup := s.Profile.WorkerSpawn + int64(float64(len(script))*s.Profile.ScriptEvalByteNs)
	// The worker context begins life busy: thread start + script eval.
	s.Sim.PostDelay(ctx.sctx, parentDelay, func() {
		s.Sim.Charge(startup)
		main(w)
	})
	return w
}

// parentDelay is the small fixed lag between the parent's new Worker()
// call and the worker thread beginning to run.
const parentDelay = 50_000

// SetPriority sets the worker's scheduling niceness — the "Worker
// Priority Control" §6 proposes browsers should offer ("providing this
// facility would let web applications prevent a low-priority
// CPU-intensive worker from interfering with the main browser thread").
// Higher values mean lower priority.
func (w *Worker) SetPriority(nice int) { w.Ctx.sctx.SetNice(nice) }

// Terminate kills the worker immediately (worker.terminate() in JS):
// pending events are dropped, coroutines die, futex waits never return.
func (w *Worker) Terminate() {
	if w.terminated {
		return
	}
	w.terminated = true
	w.sys.Sim.KillCtx(w.Ctx.sctx)
}

// Terminated reports whether Terminate has been called.
func (w *Worker) Terminated() bool { return w.terminated }

// CreateObjectURL stores data and returns a blob: URL for it, like
// URL.createObjectURL(new Blob([data])). Browsix uses this to start
// workers from executables that live only in its file system (§3.3).
// The store keeps data by reference, not a copy: like a JS Blob, the
// bytes are immutable, and the caller must never mutate them afterwards.
func (s *System) CreateObjectURL(data []byte) string {
	s.blobSeq++
	url := fmt.Sprintf("blob:browsix/%d", s.blobSeq)
	s.blobs[url] = data
	if s.Sim.Cur() != nil {
		s.Sim.Charge(s.Profile.BlobURLCreate)
	}
	return url
}

// RevokeObjectURL releases the bytes behind a blob: URL, like
// URL.revokeObjectURL. Workers already started from it keep running. It
// charges no virtual time.
func (s *System) RevokeObjectURL(url string) { delete(s.blobs, url) }

// LiveBlobs reports how many blob: URLs still hold their bytes.
func (s *System) LiveBlobs() int { return len(s.blobs) }

// ---------------------------------------------------------------------------
// SharedArrayBuffer + Atomics (ECMAScript Shared Memory spec, [4] in the
// paper). A SAB passes between contexts by reference; Atomics.wait blocks a
// worker thread on a 32-bit cell; Atomics.notify wakes waiters.
// ---------------------------------------------------------------------------

// SAB is a SharedArrayBuffer: a byte buffer shared (not cloned) across
// contexts.
type SAB struct {
	b       []byte
	tracker DirtyTracker

	// written has a bit for every heapPage-byte page that may hold a
	// nonzero byte: MarkDirty and Store32 set them. Reuse clears only
	// those pages, so a page no process wrote is never touched (in a
	// fresh allocation the OS has not even mapped it).
	written []uint64

	// waiters are the coroutines blocked in Atomics.wait on this
	// buffer's cells, in arrival order.
	waiters []futexWaiter
}

// DirtyTracker observes writes into a SAB at page granularity. The
// snapshot subsystem installs one on a cloned process heap so
// copy-on-write faults and soft-dirty bits track which pages diverged
// from the shared image. Bulk writers (memcpy-style helpers) call
// MarkDirty explicitly; Store32 marks automatically.
type DirtyTracker interface {
	MarkDirty(off, n int)
}

// SetDirtyTracker installs (or clears, with nil) the write observer.
func (s *SAB) SetDirtyTracker(t DirtyTracker) { s.tracker = t }

// MarkDirty records a write of n bytes at off and reports it to the
// installed tracker. Callers that write through Bytes() must call it:
// System.NewSAB clears only the pages it records when it hands the
// buffer to another process.
func (s *SAB) MarkDirty(off, n int) {
	if n <= 0 {
		return
	}
	s.markWritten(off, n)
	if s.tracker != nil {
		s.tracker.MarkDirty(off, n)
	}
}

// heapPage is the granularity at which a SAB records its writes.
const heapPage = 4096

// markWritten sets the written bits of the pages [off, off+n) touches.
func (s *SAB) markWritten(off, n int) {
	for p := off / heapPage; p <= (off+n-1)/heapPage && p/64 < len(s.written); p++ {
		s.written[p/64] |= 1 << (p % 64)
	}
}

// zero clears the pages the written bits name and resets the bits.
func (s *SAB) zero() {
	for i, w := range s.written {
		for ; w != 0; w &= w - 1 {
			lo := (i*64 + bits.TrailingZeros64(w)) * heapPage
			clear(s.b[lo:min(lo+heapPage, len(s.b))])
		}
		s.written[i] = 0
	}
}

// NewSAB allocates a SharedArrayBuffer of n bytes. Process heaps come
// from System.NewSAB instead, which reuses the heaps of exited processes.
func NewSAB(n int) *SAB {
	pages := (n + heapPage - 1) / heapPage
	return &SAB{b: make([]byte, n), written: make([]uint64, (pages+63)/64)}
}

// NewSAB returns a zeroed SharedArrayBuffer of n bytes: a released one
// of that length when the browser holds one, else a fresh allocation.
// Zeroing the pages written since the last reuse stands in for the
// allocator's own zeroing, so a process cannot tell a reused heap from
// a new one.
func (s *System) NewSAB(n int) *SAB {
	for i := len(s.heaps) - 1; i >= 0; i-- {
		if sab := s.heaps[i]; len(sab.b) == n {
			last := len(s.heaps) - 1
			s.heaps[i] = s.heaps[last]
			s.heaps[last] = nil
			s.heaps = s.heaps[:last]
			sab.zero()
			return sab
		}
	}
	return NewSAB(n)
}

// ReleaseSAB hands a heap back for NewSAB to reuse. The caller must be
// its last user: every context that could touch it has terminated, and
// nothing reads or writes it again. Releasing drops its dirty tracker
// and its futex waiters, the coroutines a terminated worker left parked
// in Atomics.wait. A nil heap is ignored.
func (s *System) ReleaseSAB(sab *SAB) {
	if sab == nil {
		return
	}
	if slices.Contains(s.heaps, sab) {
		panic("browser: SharedArrayBuffer released twice")
	}
	sab.tracker = nil
	clear(sab.waiters)
	sab.waiters = sab.waiters[:0]
	s.heaps = append(s.heaps, sab)
}

// Len returns the buffer length.
func (s *SAB) Len() int { return len(s.b) }

// Bytes exposes the underlying storage. Within the deterministic simulator
// only one context runs at a time, so direct access is race-free; the cost
// of bulk copies in/out is charged by callers.
func (s *SAB) Bytes() []byte { return s.b }

// Load32 performs Atomics.load on a 32-bit little-endian cell.
func (s *SAB) Load32(off int) uint32 { return binary.LittleEndian.Uint32(s.b[off:]) }

// Store32 performs Atomics.store.
func (s *SAB) Store32(off int, v uint32) {
	binary.LittleEndian.PutUint32(s.b[off:], v)
	s.markWritten(off, 4)
	if s.tracker != nil {
		s.tracker.MarkDirty(off, 4)
	}
}

// futexWaiter is one Atomics.wait in progress: the cell and the
// coroutine blocked on it.
type futexWaiter struct {
	off int
	g   *sched.G
}

// WaitResult is the result of Atomics.wait.
type WaitResult string

// Atomics.wait outcomes per the spec.
const (
	WaitOK       WaitResult = "ok"
	WaitNotEqual WaitResult = "not-equal"
	WaitTimedOut WaitResult = "timed-out"
)

// FutexWait implements Atomics.wait(sab, off, expected, timeout): if the
// cell's value differs from expected it returns "not-equal" immediately;
// otherwise the calling coroutine blocks its entire context until
// FutexNotify or the timeout (timeout<0 means wait forever).
//
// Calling it on the main context panics: browsers forbid Atomics.wait on
// the main thread, which is exactly why the Browsix kernel can never block
// and must be written in continuation-passing style.
func (s *System) FutexWait(c *Context, sab *SAB, off int, expected uint32, timeout int64) WaitResult {
	if !c.isWorker {
		panic("browser: Atomics.wait on the main thread is forbidden")
	}
	s.Sim.Charge(s.Profile.AtomicsOp)
	if sab.Load32(off) != expected {
		return WaitNotEqual
	}
	g := s.Sim.CurG()
	if g == nil {
		panic("browser: FutexWait requires a program coroutine")
	}
	sab.waiters = append(sab.waiters, futexWaiter{off: off, g: g})
	if timeout >= 0 {
		s.Sim.WakeCtx(g, c.Now()+timeout, WaitTimedOut)
	}
	v := s.Sim.BlockCur()
	// Remove ourselves from the wait list if still present (timeout path).
	for i, w := range sab.waiters {
		if w.g == g {
			sab.dropWaiter(i)
			break
		}
	}
	if r, ok := v.(WaitResult); ok {
		return r
	}
	return WaitOK
}

// FutexNotify implements Atomics.notify(sab, off, count), waking up to
// count waiters. It returns the number woken. Wake-ups land after the
// profile's FutexWake latency.
func (s *System) FutexNotify(sab *SAB, off int, count int) int {
	s.Sim.Charge(s.Profile.AtomicsOp)
	n := 0
	for i := 0; i < len(sab.waiters) && (count < 0 || n < count); {
		w := sab.waiters[i]
		if w.off != off {
			i++
			continue
		}
		sab.dropWaiter(i)
		s.Sim.WakeCtx(w.g, s.Sim.Now()+s.Profile.FutexWake, WaitOK)
		n++
	}
	return n
}

// dropWaiter removes waiter i, keeping the rest in arrival order. The
// vacated slot is zeroed so the list does not keep a finished
// coroutine reachable.
func (sab *SAB) dropWaiter(i int) {
	n := len(sab.waiters) - 1
	copy(sab.waiters[i:], sab.waiters[i+1:])
	sab.waiters[n] = futexWaiter{}
	sab.waiters = sab.waiters[:n]
}
