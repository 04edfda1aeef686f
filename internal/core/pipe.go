package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/fs"
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
	segs         []pipeSeg // owned buffers, FIFO
	size         int       // total buffered bytes across segs
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

// pipeSeg is one buffered segment. Plain segments (slot < 0) own their
// bytes outright. Slot-backed segments alias the shared page-pool arena
// — adopted from a zero-copy writeg submission — and carry the owner
// record that returns the pipe's pin when the last piece of the adopted
// reference leaves. Slot-backed bytes leave the pipe either as page
// grants (ReadRef, zero-copy) or as fresh copies (takeBytes/takeSegs):
// handing out the arena alias itself would let a consumer keep reading
// a slot after its pins drop and the pool recycles it.
type pipeSeg struct {
	data  []byte
	slot  int   // backing pool slot for adopted segments, else -1
	off   int64 // arena byte offset of data[0] (slot-backed only)
	owner *segOwner
}

// segOwner tracks one adopted writeg reference across pipe splits:
// pieces counts the live pieces carved from it (buffered or still held
// by a parked writer); when the last piece leaves the pipe, release
// returns the pipe's adopter pin. lease takes one extra lease-accounted
// pin — used when a piece leaves as a read grant, so the reader's later
// unlease stays balanced against pages granted.
type segOwner struct {
	pieces  int
	lease   func()
	release func()
}

// done retires one piece; safe on nil (plain segments).
func (o *segOwner) done() {
	if o == nil {
		return
	}
	if o.pieces--; o.pieces == 0 {
		o.release()
	}
}

// pipeRead is a parked reader: exactly one of cb (scalar), spliceCB
// (vectored, owned-segment), or notify (grant-capable readg, see
// readNotify) is set.
type pipeRead struct {
	n        int
	cb       func([]byte, abi.Errno)
	spliceCB func([][]byte, abi.Errno)
	notify   func()
}

// pipeWrite is a parked writer. segs holds the bytes still to transfer;
// owned writers hand their buffers over without copying.
type pipeWrite struct {
	segs  []pipeSeg
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

// takeBytes removes and returns min(n, size) bytes as one slice. When a
// plain head segment alone satisfies the request the slice is handed
// over without copying (the pipe owns plain segments outright, so
// ownership transfers to the reader); reads spanning segments — and any
// slot-backed bytes, which the reader must not alias — gather into a
// fresh buffer.
func (p *Pipe) takeBytes(n int) []byte {
	if n > p.size {
		n = p.size
	}
	if n == 0 {
		return nil
	}
	if s := &p.segs[0]; s.owner == nil && len(s.data) >= n {
		// Full slice expression: the handed-out slice's capacity stops
		// at n, so a reader growing it can never reach bytes the pipe
		// still buffers in s.data[n:].
		out := s.data[:n:n]
		if len(s.data) == n {
			p.segs = p.segs[1:]
		} else {
			s.data = s.data[n:]
		}
		p.size -= n
		return out
	}
	out := make([]byte, 0, n)
	for n > 0 {
		s := &p.segs[0]
		take := len(s.data)
		if take > n {
			take = n
		}
		out = append(out, s.data[:take]...)
		if take == len(s.data) {
			s.owner.done()
			p.segs = p.segs[1:]
		} else {
			s.data = s.data[take:]
			s.off += int64(take)
		}
		p.size -= take
		n -= take
	}
	return out
}

// takeSegs removes up to max bytes as whole owned segments, splitting
// only the final segment — plain segments move without copying, with
// split pieces capacity-capped so the reader's slice can never grow
// into bytes the pipe still buffers. Slot-backed segments leave as
// fresh copies: their arena bytes may be recycled once the pipe's pin
// drops, and the caller keeps the result indefinitely.
func (p *Pipe) takeSegs(max int) [][]byte {
	if max > p.size {
		max = p.size
	}
	var out [][]byte
	n := max
	for n > 0 {
		s := &p.segs[0]
		if len(s.data) <= n {
			b := s.data
			if s.owner != nil {
				b = append([]byte(nil), b...)
				s.owner.done()
			}
			out = append(out, b)
			p.segs = p.segs[1:]
			p.size -= len(b)
			n -= len(b)
		} else {
			b := s.data[:n:n]
			if s.owner != nil {
				b = append([]byte(nil), s.data[:n]...)
			}
			out = append(out, b)
			s.data = s.data[n:]
			s.off += int64(n)
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

// readNotify runs fn as soon as the pipe has data or EOF — immediately
// when either holds, otherwise parked in FIFO order with ordinary
// readers. A readg against an empty pipe parks here instead of falling
// to the copy path up front: when fn fires, the caller re-attempts the
// grant answer (ReadRef) against the now-buffered head and only then
// falls back to a copying read — both complete inline at that point, so
// blocking never forfeits the zero-copy path.
func (p *Pipe) readNotify(fn func()) {
	if p.size > 0 || p.writeClosed {
		fn()
		return
	}
	p.readWaiters = append(p.readWaiters, pipeRead{notify: fn})
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
	segs := make([]pipeSeg, 0, len(bufs))
	for _, b := range bufs {
		if len(b) > 0 {
			segs = append(segs, pipeSeg{data: b, slot: -1})
		}
	}
	p.enqueueSegs(segs, owned, cb)
}

// writeSlotSegs transfers adopted (arena-aliased) segments into the
// pipe: the zero-copy writeg entry. Each segment's owner record arrives
// armed by the kernel with the pin-management closures; backpressure
// and EPIPE semantics match writeOwned.
func (p *Pipe) writeSlotSegs(segs []pipeSeg, cb func(int, abi.Errno)) {
	p.enqueueSegs(segs, true, cb)
}

func (p *Pipe) enqueueSegs(segs []pipeSeg, owned bool, cb func(int, abi.Errno)) {
	if p.readClosed || p.writeClosed {
		// readClosed: classic EPIPE. writeClosed: the write side already
		// delivered EOF (CloseWrite); accepting more data would smuggle
		// bytes past the EOF the reader was promised — only kernel-held
		// ends (a Console whose stdin was closed) can reach this. Either
		// way adopted segments never enter the pipe, so their pieces
		// retire here.
		for i := range segs {
			segs[i].owner.done()
		}
		cb(0, abi.EPIPE)
		return
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
			for i := range w.segs {
				w.segs[i].owner.done()
			}
			w.cb(w.done, abi.EPIPE)
			continue
		}
		space := PipeCap - p.size
		for space > 0 && len(w.segs) > 0 {
			s := &w.segs[0]
			take := len(s.data)
			if take > space {
				take = space
			}
			if w.owned {
				// Capacity-capped so a reader who later receives this
				// piece whole can't grow it into the unsent remainder.
				p.segs = append(p.segs, pipeSeg{
					data: s.data[:take:take], slot: s.slot, off: s.off, owner: s.owner,
				})
				if take < len(s.data) {
					// The reference now lives as two pieces: the buffered
					// prefix and the writer-held remainder.
					if s.owner != nil {
						s.owner.pieces++
					}
				}
			} else {
				cp := make([]byte, take)
				copy(cp, s.data[:take])
				p.segs = append(p.segs, pipeSeg{data: cp, slot: -1})
			}
			p.size += take
			w.done += take
			space -= take
			if take == len(s.data) {
				w.segs = w.segs[1:]
			} else {
				s.data = s.data[take:]
				s.off += int64(take)
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
					if r.notify != nil {
						r.notify() // sees EOF inline
					} else if r.spliceCB != nil {
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
		if r.notify != nil {
			// The callee consumes (grant or copy) inline; the loop re-checks
			// size at the top for the next waiter.
			r.notify()
		} else if r.spliceCB != nil {
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
	for i := range p.segs {
		p.segs[i].owner.done()
	}
	p.segs = nil
	p.size = 0
	ws := p.writeWaiters
	p.writeWaiters = nil
	for _, w := range ws {
		for i := range w.segs {
			w.segs[i].owner.done()
		}
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
	take := len(data)
	if take > space {
		take = space
	}
	cp := make([]byte, take)
	copy(cp, data[:take])
	p.segs = append(p.segs, pipeSeg{data: cp, slot: -1})
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

// WriteSlotSegs is the zero-copy writeg entry for a pipe write end:
// fully-formed arena-aliased segments (owner records armed by the
// kernel) enter the buffer by reference.
func (e *pipeEnd) WriteSlotSegs(segs []pipeSeg, cb func(int, abi.Errno)) {
	if e.reader {
		for i := range segs {
			segs[i].owner.done()
		}
		cb(0, abi.EBADF)
		return
	}
	e.p.writeSlotSegs(segs, func(n int, err abi.Errno) {
		if err == abi.EPIPE && e.sigPipe != nil {
			e.sigPipe()
		}
		cb(n, err)
	})
}

// ReadRef answers a readg against the pipe: consecutive slot-backed
// head segments leave as page grants — adopted writeg bytes cross the
// pipe without a copy. Any other head (plain heap segment, empty pipe,
// EOF) refuses, and the caller's fallback — splice plus one copy into
// the reader's heap — keeps the blocking and EOF semantics. Granted
// pieces are consumed: each takes a fresh lease-accounted pin for the
// reader before the pipe's own piece retires.
func (e *pipeEnd) ReadRef(d *Desc, n, max int) ([]fs.PageRef, bool) {
	if !e.reader || e.p.size == 0 || len(e.p.segs) == 0 || e.p.segs[0].owner == nil {
		return nil, false
	}
	p := e.p
	var refs []fs.PageRef
	for n > 0 && len(p.segs) > 0 && len(refs) < max {
		s := &p.segs[0]
		if s.owner == nil {
			break
		}
		take := len(s.data)
		if take > n {
			take = n
		}
		s.owner.lease()
		refs = append(refs, fs.PageRef{Slot: s.slot, Off: s.off, Len: take})
		if take == len(s.data) {
			s.owner.done()
			p.segs = p.segs[1:]
		} else {
			s.data = s.data[take:]
			s.off += int64(take)
		}
		p.size -= take
		n -= take
	}
	p.pumpWriter()
	return refs, true
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
