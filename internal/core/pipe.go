package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/abi"
)

// PipeCap is the pipe buffer capacity, matching the traditional 64 KiB.
const PipeCap = 64 * 1024

// Pipe implements §3.4: an in-memory buffer with a read-side wait queue
// (readers with no data get their continuation enqueued, invoked when data
// is written) and write-side backpressure (writers into a full buffer wait
// until the pipe is drained) — the discipline §6 laments plain postMessage
// lacks.
//
// Internally the buffer is a FIFO queue of owned byte segments rather than
// one flat slice. The scalar Read/Write API behaves exactly as before
// (Write copies the caller's bytes in; Read returns min(n, Buffered())
// bytes), but the owned-segment representation lets the kernel hand over
// buffers it owns: a pipe end's or a socket's write (and writev) moves
// the kernel's copy of the caller's bytes (decoded from a process heap
// or carried by a call frame) into the queue without copying it again,
// and a read hands out the segment it takes (Splice whole segments) —
// so no pipe copies a payload again. On the asynchronous transport the
// write's clone is the payload's one host copy end to end: the pipe
// keeps it and the read's reply moves it to the reader. On the heap
// transport the payload is copied out of the writer's heap and into the
// reader's, once each way.
//
// The segment queue and both wait queues keep their backing arrays as
// they drain, so a pipe in a steady state of writes and reads allocates
// only the segments scalar writes copy.
type Pipe struct {
	id           int
	segs         fifo[[]byte] // owned buffers
	size         int          // total buffered bytes across segs
	readWaiters  fifo[pipeRead]
	writeWaiters fifo[pipeWrite]
	readClosed   bool
	writeClosed  bool

	// onReadable lets the kernel observe backpressure in tests.
	onReadable func()

	// onState, when set (kernel-owned pipes: socket halves, pipe2
	// pairs), fires after any readiness transition — data buffered,
	// space freed, either side closed — so parked SYS_poll waiters
	// re-evaluate level-triggered readiness (poll.go).
	onState func()
}

// fifo is a queue that keeps its backing array: a pop advances head,
// and a push into a full array first slides the live elements down to
// the start, so a queue that fills and drains in a steady state stops
// allocating. Popped slots are zeroed so they hold nothing reachable.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// front is the oldest element, in place; valid until the next push.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// stateChanged fires the poll hook; safe to call redundantly (the
// kernel's kick is level-triggered and O(1) when nothing is parked).
func (p *Pipe) stateChanged() {
	if p.onState != nil {
		p.onState()
	}
}

// pipeRead is a parked reader: exactly one of cb (scalar) or spliceCB
// (vectored, owned-segment) is set. call is the system call the read
// completes, nil for the kernel's own readers.
type pipeRead struct {
	n        int
	cb       func([]byte, abi.Errno)
	spliceCB func([][]byte, abi.Errno)
	call     *callCont
}

// empty completes the read with no data and err.
func (r *pipeRead) empty(err abi.Errno) {
	if r.spliceCB != nil {
		r.spliceCB(nil, err)
	} else {
		r.cb(nil, err)
	}
}

// pipeWrite is a write still moving into the pipe: cur is what is left
// of the buffer being moved, rest the buffers after it. Owned writes
// hand their buffers over without copying. sigPipe, when set, runs
// before cb when the write fails with EPIPE.
type pipeWrite struct {
	cur     []byte
	rest    [][]byte
	done    int
	owned   bool
	sigPipe func()
	cb      func(int, abi.Errno)
}

// movedWrite is an owned write of bufs.
func movedWrite(bufs [][]byte, sigPipe func(), cb func(int, abi.Errno)) pipeWrite {
	w := pipeWrite{rest: bufs, owned: true, sigPipe: sigPipe, cb: cb}
	w.next()
	return w
}

// next moves on to the next non-empty buffer, if any.
func (w *pipeWrite) next() {
	w.cur = nil
	for len(w.cur) == 0 && len(w.rest) > 0 {
		w.cur, w.rest = w.rest[0], w.rest[1:]
	}
}

func (w *pipeWrite) finish(err abi.Errno) {
	if err == abi.EPIPE && w.sigPipe != nil {
		w.sigPipe()
	}
	w.cb(w.done, err)
}

// pipeSeq is process-wide: ids only need to be unique for diagnostics
// (pipe:[N] names), and an atomic keeps concurrent Instances race-free.
var pipeSeq atomic.Int64

// NewPipe creates an empty pipe.
func NewPipe() *Pipe {
	return &Pipe{id: int(pipeSeq.Add(1))}
}

// takeBytes removes and returns min(n, size) bytes as one slice. When
// the head segment alone satisfies the request the slice is handed over
// without copying (the pipe owns its segments outright, so ownership
// transfers to the reader); reads spanning segments gather into a
// fresh buffer.
func (p *Pipe) takeBytes(n int) []byte {
	if n > p.size {
		n = p.size
	}
	if n == 0 {
		return nil
	}
	if s := *p.segs.front(); len(s) >= n {
		// Full slice expression: the handed-out slice's capacity stops
		// at n, so a reader growing it can never reach bytes the pipe
		// still buffers in s[n:].
		if len(s) == n {
			p.segs.pop()
		} else {
			*p.segs.front() = s[n:]
		}
		p.size -= n
		return s[:n:n]
	}
	out := make([]byte, 0, n)
	for n > 0 {
		s := *p.segs.front()
		take := min(len(s), n)
		out = append(out, s[:take]...)
		if take == len(s) {
			p.segs.pop()
		} else {
			*p.segs.front() = s[take:]
		}
		p.size -= take
		n -= take
	}
	return out
}

// takeSegs removes up to max bytes as whole owned segments, splitting
// only the final segment — segments move without copying, with split
// pieces capacity-capped so the reader's slice can never grow into
// bytes the pipe still buffers.
func (p *Pipe) takeSegs(max int) [][]byte {
	if max > p.size {
		max = p.size
	}
	var out [][]byte
	n := max
	for n > 0 {
		s := *p.segs.front()
		if len(s) <= n {
			out = append(out, s)
			p.segs.pop()
			p.size -= len(s)
			n -= len(s)
		} else {
			out = append(out, s[:n:n])
			*p.segs.front() = s[n:]
			p.size -= n
			n = 0
		}
	}
	return out
}

// read delivers up to n bytes, or queues the continuation when the pipe is
// empty. At EOF (writer closed, buffer drained) it delivers an empty slice.
// call, when set, is the system call the read completes (see pipeRead).
func (p *Pipe) read(call *callCont, n int, cb func([]byte, abi.Errno)) {
	if p.size == 0 {
		if p.writeClosed {
			cb(nil, abi.OK) // EOF
			return
		}
		p.readWaiters.push(pipeRead{n: n, cb: cb, call: call})
		return
	}
	out := p.takeBytes(n)
	p.pumpWriter()
	cb(out, abi.OK)
}

// splice delivers up to max buffered bytes as owned segments without
// copying, queuing the continuation when the pipe is empty. EOF delivers a
// nil segment list.
func (p *Pipe) splice(call *callCont, max int, cb func([][]byte, abi.Errno)) {
	if p.size == 0 {
		if p.writeClosed {
			cb(nil, abi.OK) // EOF
			return
		}
		p.readWaiters.push(pipeRead{n: max, spliceCB: cb, call: call})
		return
	}
	out := p.takeSegs(max)
	p.pumpWriter()
	cb(out, abi.OK)
}

// write appends a copy of data, blocking (queuing the continuation) when
// the buffer is full. Writes complete only when every byte is buffered, so
// pipeline stages see classic blocking-write semantics.
func (p *Pipe) write(data []byte, cb func(int, abi.Errno)) {
	p.enqueueWrite(pipeWrite{cur: data, cb: cb})
}

// writeOwned transfers ownership of bufs into the pipe — the caller must
// not touch them afterwards. Backpressure matches write: the continuation
// fires once every byte is buffered.
func (p *Pipe) writeOwned(bufs [][]byte, cb func(int, abi.Errno)) {
	p.enqueueWrite(movedWrite(bufs, nil, cb))
}

func (p *Pipe) enqueueWrite(w pipeWrite) {
	if p.readClosed || p.writeClosed {
		// readClosed: classic EPIPE. writeClosed: the write side already
		// delivered EOF (CloseWrite); accepting more data would smuggle
		// bytes past the EOF the reader was promised — only kernel-held
		// ends (a Console whose stdin was closed) can reach this.
		w.finish(abi.EPIPE)
		return
	}
	// Writers queue FIFO, so several outstanding writes (the ring
	// transport batches them) complete in order as space frees up.
	p.writeWaiters.push(w)
	p.pumpWriter()
}

// move buffers as much of w as fits: owned bytes by reference, other
// bytes copied once here.
func (p *Pipe) move(w *pipeWrite) {
	space := PipeCap - p.size
	for space > 0 && len(w.cur) > 0 {
		take := min(len(w.cur), space)
		if w.owned {
			// Capacity-capped so a reader who later receives this
			// piece whole can't grow it into the unsent remainder.
			p.segs.push(w.cur[:take:take])
		} else {
			p.segs.push(append([]byte(nil), w.cur[:take]...))
		}
		p.size += take
		w.done += take
		space -= take
		if w.cur = w.cur[take:]; len(w.cur) == 0 {
			w.next()
		}
	}
}

// pumpWriter moves pending write bytes into the segment queue as space
// allows, completing writers in FIFO order.
func (p *Pipe) pumpWriter() {
	if p.writeWaiters.len() == 0 {
		// Nothing queued; don't re-enter pumpReaders. The caller may
		// still have drained bytes (read paths land here), so announce
		// the possible space-freed transition to parked pollers.
		p.stateChanged()
		return
	}
	for p.writeWaiters.len() > 0 {
		if p.readClosed {
			w := p.writeWaiters.pop()
			w.finish(abi.EPIPE)
			continue
		}
		w := p.writeWaiters.front()
		p.move(w)
		if len(w.cur) > 0 {
			break // blocked on space until a reader drains
		}
		done := p.writeWaiters.pop()
		done.finish(abi.OK)
	}
	p.pumpReaders()
	p.stateChanged()
}

// pumpReaders satisfies queued readers (scalar and splice alike, in FIFO
// order) from the segment queue. A read whose process exited or exec'd
// while it was parked is completed empty (its completion is dropped)
// and passed over, so the bytes go to the next live reader.
func (p *Pipe) pumpReaders() {
	for p.readWaiters.len() > 0 {
		if p.size == 0 {
			if p.writeClosed {
				// Drain EOF to all waiters.
				for p.readWaiters.len() > 0 {
					r := p.readWaiters.pop()
					r.empty(abi.OK)
				}
			}
			return
		}
		r := p.readWaiters.pop()
		if r.call != nil && r.call.orphaned() {
			r.empty(abi.EINTR)
			continue
		}
		if r.spliceCB != nil {
			out := p.takeSegs(r.n)
			p.pumpWriter()
			r.spliceCB(out, abi.OK)
		} else {
			out := p.takeBytes(r.n)
			p.pumpWriter()
			r.cb(out, abi.OK)
		}
	}
}

// closeWrite marks the writer side closed: queued readers drain then see
// EOF.
func (p *Pipe) closeWrite() {
	p.writeClosed = true
	p.pumpReaders()
	p.stateChanged()
}

// closeRead marks the reader side closed: pending and future writes fail
// with EPIPE (the kernel also raises SIGPIPE, as Unix does).
func (p *Pipe) closeRead() {
	p.readClosed = true
	p.segs = fifo[[]byte]{}
	p.size = 0
	for p.writeWaiters.len() > 0 {
		w := p.writeWaiters.pop()
		w.finish(abi.EPIPE)
	}
	p.stateChanged()
}

// writeNB is the non-blocking write: buffer what fits of w right now
// and report it, or EAGAIN when the pipe is full (or earlier blocking
// writers are still queued — jumping them would reorder the stream).
// O_NONBLOCK socket writes land here; the bounded buffer is what gives
// each connection backpressure under load.
func (p *Pipe) writeNB(w pipeWrite) (int, abi.Errno) {
	if p.readClosed || p.writeClosed {
		return 0, abi.EPIPE
	}
	if PipeCap-p.size <= 0 || p.writeWaiters.len() > 0 {
		return 0, abi.EAGAIN
	}
	p.move(&w)
	p.pumpReaders()
	p.stateChanged()
	return w.done, abi.OK
}

// Buffered returns the bytes currently queued (diagnostics).
func (p *Pipe) Buffered() int { return p.size }

// Read is the exported read for kernel-side consumers (StartProcess's output
// pumps, the web app's XHR path, tests).
func (p *Pipe) Read(n int, cb func([]byte, abi.Errno)) { p.read(nil, n, cb) }

// Write is the exported write for kernel-side producers.
func (p *Pipe) Write(data []byte, cb func(int, abi.Errno)) { p.write(data, cb) }

// WriteOwned is the exported zero-copy write: ownership of bufs moves to
// the pipe, which will hand the same backing arrays to splicing readers.
func (p *Pipe) WriteOwned(bufs [][]byte, cb func(int, abi.Errno)) { p.writeOwned(bufs, cb) }

// Splice is the exported zero-copy read: up to max bytes leave the pipe as
// whole owned segments.
func (p *Pipe) Splice(max int, cb func([][]byte, abi.Errno)) { p.splice(nil, max, cb) }

// CloseRead closes the reader side (future writes fail with EPIPE).
func (p *Pipe) CloseRead() { p.closeRead() }

// CloseWrite closes the writer side (readers drain then see EOF).
func (p *Pipe) CloseWrite() { p.closeWrite() }

// ---------------------------------------------------------------------------
// Pipe ends as kernel Files.
// ---------------------------------------------------------------------------

// pipeEnd is one end of a pipe exposed as a descriptor. sigPipe, when
// non-nil, is invoked on EPIPE so the kernel can deliver SIGPIPE to the
// writing process.
type pipeEnd struct {
	p       *Pipe
	reader  bool
	sigPipe func()
}

// NewPipePair returns connected (read end, write end) kernel files.
func NewPipePair() (File, File) {
	p := NewPipe()
	return &pipeEnd{p: p, reader: true}, &pipeEnd{p: p, reader: false}
}

func (e *pipeEnd) Read(d *Desc, n int, cb func([]byte, abi.Errno)) { e.readCall(d, nil, n, cb) }

// readCall is Read for system call c (callReader).
func (e *pipeEnd) readCall(d *Desc, c *callCont, n int, cb func([]byte, abi.Errno)) {
	if !e.reader {
		cb(nil, abi.EBADF)
		return
	}
	e.p.read(c, n, cb)
}

func (e *pipeEnd) Write(d *Desc, data []byte, cb func(int, abi.Errno)) {
	if e.reader {
		cb(0, abi.EBADF)
		return
	}
	e.p.enqueueWrite(pipeWrite{cur: data, sigPipe: e.sigPipe, cb: cb})
}

// Writev is the vectored owned write: the kernel hands over buffers it
// owns (decoded from a process heap or carried by a call frame) and the
// pipe keeps them instead of copying.
func (e *pipeEnd) Writev(d *Desc, bufs [][]byte, cb func(int, abi.Errno)) {
	if e.reader {
		cb(0, abi.EBADF)
		return
	}
	e.p.enqueueWrite(movedWrite(bufs, e.sigPipe, cb))
}

// moveIn is Writev of one kernel-owned buffer.
func (e *pipeEnd) moveIn(d *Desc, buf []byte, cb func(int, abi.Errno)) {
	if e.reader {
		cb(0, abi.EBADF)
		return
	}
	e.p.enqueueWrite(pipeWrite{cur: buf, owned: true, sigPipe: e.sigPipe, cb: cb})
}

// spliceCall moves up to max buffered bytes out as owned segments for
// a system call (the vectored-read fast path).
func (e *pipeEnd) spliceCall(d *Desc, max int, c *callCont) {
	if !e.reader {
		c.segs(nil, abi.EBADF)
		return
	}
	e.p.splice(c, max, c.segs)
}

func (e *pipeEnd) Pread(off int64, n int, cb func([]byte, abi.Errno)) { cb(nil, abi.ESPIPE) }
func (e *pipeEnd) Pwrite(off int64, b []byte, cb func(int, abi.Errno)) {
	cb(0, abi.ESPIPE)
}
func (e *pipeEnd) Seek(d *Desc, off int64, w int, cb func(int64, abi.Errno)) {
	cb(0, abi.ESPIPE)
}
func (e *pipeEnd) Stat(cb func(abi.Stat, abi.Errno)) {
	cb(abi.Stat{Mode: abi.S_IFIFO | 0o600, Size: int64(e.p.Buffered()), Nlink: 1}, abi.OK)
}
func (e *pipeEnd) Getdents(d *Desc, cb func([]abi.Dirent, abi.Errno)) { cb(nil, abi.ENOTDIR) }
func (e *pipeEnd) Truncate(s int64, cb func(abi.Errno))               { cb(abi.EINVAL) }

func (e *pipeEnd) Close(cb func(abi.Errno)) {
	if e.reader {
		e.p.closeRead()
	} else {
		e.p.closeWrite()
	}
	cb(abi.OK)
}

func (e *pipeEnd) String() string {
	dir := "w"
	if e.reader {
		dir = "r"
	}
	return fmt.Sprintf("pipe:[%d%s]", e.p.id, dir)
}
