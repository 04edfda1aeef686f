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
// bytes), but the owned-segment representation enables the zero-copy fast
// path the ring transport uses: WriteOwned moves caller-owned buffers into
// the queue without copying, and Splice moves whole segments out to the
// reader — so a shell pipeline's payload is copied once (into the
// destination heap) instead of at every pipe crossing.
type Pipe struct {
	id           int
	segs         [][]byte // owned buffers, FIFO
	size         int      // total buffered bytes across segs
	readWaiters  []pipeRead
	writeWaiters []*pipeWrite
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

// stateChanged fires the poll hook; safe to call redundantly (the
// kernel's kick is level-triggered and O(1) when nothing is parked).
func (p *Pipe) stateChanged() {
	if p.onState != nil {
		p.onState()
	}
}

// pipeRead is a parked reader: exactly one of cb (scalar) or spliceCB
// (vectored, owned-segment) is set.
type pipeRead struct {
	n        int
	cb       func([]byte, abi.Errno)
	spliceCB func([][]byte, abi.Errno)
}

// pipeWrite is a parked writer. segs holds the bytes still to transfer;
// owned writers hand their buffers over without copying.
type pipeWrite struct {
	segs  [][]byte
	done  int
	owned bool
	cb    func(int, abi.Errno)
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
	if s := p.segs[0]; len(s) >= n {
		// Full slice expression: the handed-out slice's capacity stops
		// at n, so a reader growing it can never reach bytes the pipe
		// still buffers in s[n:].
		if len(s) == n {
			p.segs = p.segs[1:]
		} else {
			p.segs[0] = s[n:]
		}
		p.size -= n
		return s[:n:n]
	}
	out := make([]byte, 0, n)
	for n > 0 {
		s := p.segs[0]
		take := min(len(s), n)
		out = append(out, s[:take]...)
		if take == len(s) {
			p.segs = p.segs[1:]
		} else {
			p.segs[0] = s[take:]
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
		s := p.segs[0]
		if len(s) <= n {
			out = append(out, s)
			p.segs = p.segs[1:]
			p.size -= len(s)
			n -= len(s)
		} else {
			out = append(out, s[:n:n])
			p.segs[0] = s[n:]
			p.size -= n
			n = 0
		}
	}
	return out
}

// read delivers up to n bytes, or queues the continuation when the pipe is
// empty. At EOF (writer closed, buffer drained) it delivers an empty slice.
func (p *Pipe) read(n int, cb func([]byte, abi.Errno)) {
	if p.size == 0 {
		if p.writeClosed {
			cb(nil, abi.OK) // EOF
			return
		}
		p.readWaiters = append(p.readWaiters, pipeRead{n: n, cb: cb})
		return
	}
	out := p.takeBytes(n)
	p.pumpWriter()
	cb(out, abi.OK)
}

// splice delivers up to max buffered bytes as owned segments without
// copying, queuing the continuation when the pipe is empty. EOF delivers a
// nil segment list.
func (p *Pipe) splice(max int, cb func([][]byte, abi.Errno)) {
	if p.size == 0 {
		if p.writeClosed {
			cb(nil, abi.OK) // EOF
			return
		}
		p.readWaiters = append(p.readWaiters, pipeRead{n: max, spliceCB: cb})
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
	p.enqueueWrite([][]byte{data}, false, cb)
}

// writeOwned transfers ownership of bufs into the pipe — the caller must
// not touch them afterwards. Backpressure matches write: the continuation
// fires once every byte is buffered.
func (p *Pipe) writeOwned(bufs [][]byte, cb func(int, abi.Errno)) {
	p.enqueueWrite(bufs, true, cb)
}

func (p *Pipe) enqueueWrite(bufs [][]byte, owned bool, cb func(int, abi.Errno)) {
	if p.readClosed || p.writeClosed {
		// readClosed: classic EPIPE. writeClosed: the write side already
		// delivered EOF (CloseWrite); accepting more data would smuggle
		// bytes past the EOF the reader was promised — only kernel-held
		// ends (a Console whose stdin was closed) can reach this.
		cb(0, abi.EPIPE)
		return
	}
	segs := make([][]byte, 0, len(bufs))
	for _, b := range bufs {
		if len(b) > 0 {
			segs = append(segs, b)
		}
	}
	// Writers queue FIFO, so several outstanding writes (the ring
	// transport batches them) complete in order as space frees up.
	p.writeWaiters = append(p.writeWaiters, &pipeWrite{segs: segs, owned: owned, cb: cb})
	p.pumpWriter()
}

// pumpWriter moves pending write bytes into the segment queue as space
// allows, completing writers in FIFO order. Owned segments move by
// reference; scalar writes copy once here.
func (p *Pipe) pumpWriter() {
	if len(p.writeWaiters) == 0 {
		// Nothing queued; don't re-enter pumpReaders. The caller may
		// still have drained bytes (read paths land here), so announce
		// the possible space-freed transition to parked pollers.
		p.stateChanged()
		return
	}
	for len(p.writeWaiters) > 0 {
		w := p.writeWaiters[0]
		if p.readClosed {
			p.writeWaiters = p.writeWaiters[1:]
			w.cb(w.done, abi.EPIPE)
			continue
		}
		space := PipeCap - p.size
		for space > 0 && len(w.segs) > 0 {
			s := w.segs[0]
			take := min(len(s), space)
			if w.owned {
				// Capacity-capped so a reader who later receives this
				// piece whole can't grow it into the unsent remainder.
				p.segs = append(p.segs, s[:take:take])
			} else {
				p.segs = append(p.segs, append([]byte(nil), s[:take]...))
			}
			p.size += take
			w.done += take
			space -= take
			if take == len(s) {
				w.segs = w.segs[1:]
			} else {
				w.segs[0] = s[take:]
			}
		}
		if len(w.segs) > 0 {
			break // blocked on space until a reader drains
		}
		p.writeWaiters = p.writeWaiters[1:]
		w.cb(w.done, abi.OK)
	}
	p.pumpReaders()
	p.stateChanged()
}

// pumpReaders satisfies queued readers (scalar and splice alike, in FIFO
// order) from the segment queue.
func (p *Pipe) pumpReaders() {
	for len(p.readWaiters) > 0 {
		if p.size == 0 {
			if p.writeClosed {
				// Drain EOF to all waiters.
				ws := p.readWaiters
				p.readWaiters = nil
				for _, r := range ws {
					if r.spliceCB != nil {
						r.spliceCB(nil, abi.OK)
					} else {
						r.cb(nil, abi.OK)
					}
				}
			}
			return
		}
		r := p.readWaiters[0]
		p.readWaiters = p.readWaiters[1:]
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
	p.segs = nil
	p.size = 0
	ws := p.writeWaiters
	p.writeWaiters = nil
	for _, w := range ws {
		w.cb(w.done, abi.EPIPE)
	}
	p.stateChanged()
}

// writeNB is the non-blocking write: buffer what fits right now and
// report it, or EAGAIN when the pipe is full (or earlier blocking
// writers are still queued — jumping them would reorder the stream).
// O_NONBLOCK socket writes land here; the bounded buffer is what gives
// each connection backpressure under load.
func (p *Pipe) writeNB(data []byte) (int, abi.Errno) {
	if p.readClosed || p.writeClosed {
		return 0, abi.EPIPE
	}
	space := PipeCap - p.size
	if space <= 0 || len(p.writeWaiters) > 0 {
		return 0, abi.EAGAIN
	}
	take := min(len(data), space)
	p.segs = append(p.segs, append([]byte(nil), data[:take]...))
	p.size += take
	p.pumpReaders()
	p.stateChanged()
	return take, abi.OK
}

// Buffered returns the bytes currently queued (diagnostics).
func (p *Pipe) Buffered() int { return p.size }

// Read is the exported read for kernel-side consumers (StartProcess's output
// pumps, the web app's XHR path, tests).
func (p *Pipe) Read(n int, cb func([]byte, abi.Errno)) { p.read(n, cb) }

// Write is the exported write for kernel-side producers.
func (p *Pipe) Write(data []byte, cb func(int, abi.Errno)) { p.write(data, cb) }

// WriteOwned is the exported zero-copy write: ownership of bufs moves to
// the pipe, which will hand the same backing arrays to splicing readers.
func (p *Pipe) WriteOwned(bufs [][]byte, cb func(int, abi.Errno)) { p.writeOwned(bufs, cb) }

// Splice is the exported zero-copy read: up to max bytes leave the pipe as
// whole owned segments.
func (p *Pipe) Splice(max int, cb func([][]byte, abi.Errno)) { p.splice(max, cb) }

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

func (e *pipeEnd) Read(d *Desc, n int, cb func([]byte, abi.Errno)) {
	if !e.reader {
		cb(nil, abi.EBADF)
		return
	}
	e.p.read(n, cb)
}

func (e *pipeEnd) Write(d *Desc, data []byte, cb func(int, abi.Errno)) {
	if e.reader {
		cb(0, abi.EBADF)
		return
	}
	e.p.write(data, func(n int, err abi.Errno) {
		if err == abi.EPIPE && e.sigPipe != nil {
			e.sigPipe()
		}
		cb(n, err)
	})
}

// Writev is the vectored, zero-copy write: the kernel hands over buffers
// it owns (decoded from a process heap or a cloned message) and the pipe
// keeps them instead of copying.
func (e *pipeEnd) Writev(d *Desc, bufs [][]byte, cb func(int, abi.Errno)) {
	if e.reader {
		cb(0, abi.EBADF)
		return
	}
	e.p.writeOwned(bufs, func(n int, err abi.Errno) {
		if err == abi.EPIPE && e.sigPipe != nil {
			e.sigPipe()
		}
		cb(n, err)
	})
}

// Splice moves up to max buffered bytes out as owned segments (the
// vectored-read fast path).
func (e *pipeEnd) Splice(d *Desc, max int, cb func([][]byte, abi.Errno)) {
	if !e.reader {
		cb(nil, abi.EBADF)
		return
	}
	e.p.splice(max, cb)
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
