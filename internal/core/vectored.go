package core

import "repro/internal/abi"

// Vectored, zero-copy I/O (the data-plane half of the ring-transport
// redesign). Kernel objects may implement either optional interface to
// move whole owned buffers instead of copying per call; files that don't
// get a safe scalar fallback, so every File keeps working unchanged.

// vectoredWriter is implemented by files that take a whole buffer list
// in one call: pipe ends and sockets keep the buffers (ownership moves
// to them), fs files write them through. The kernel only passes buffers
// it owns — bytes freshly decoded from a process heap or carried in by
// a call frame.
type vectoredWriter interface {
	Writev(d *Desc, bufs [][]byte, cb func(int, abi.Errno))
}

// splicer is implemented by files that can surrender buffered data as
// owned segments without copying (pipes), completing call c with them.
type splicer interface {
	spliceCall(d *Desc, max int, c *callCont)
}

// callReader is implemented by files whose reads can park (pipe ends,
// sockets): Read for system call c, completing through cb, one of c's
// adapters. The read carries c, so a read whose process exits or execs
// while it is parked is passed over instead of taking the next write's
// bytes (Pipe.pumpReaders).
type callReader interface {
	readCall(d *Desc, c *callCont, n int, cb func([]byte, abi.Errno))
}

// vectoredReader is implemented by files whose storage can gather
// directly into segments (fs-backed files via FileHandle.Preadv), so a
// read needs no kernel-side coalescing buffer. Preadv is positional;
// the call's continuation (callCont.readv) advances the descriptor's
// offset. The segments may be views of cache pages, valid only until cb
// returns: the codecs copy them into the heap or the reply frame inside
// cb.
type vectoredReader interface {
	Preadv(off int64, lens []int, cb func([][]byte, abi.Errno))
}

// movingWriter is implemented by files that keep kernel-owned buffers
// by reference (pipe ends and sockets): moveIn is their Writev of one
// buffer, with no list to build.
type movingWriter interface {
	moveIn(d *Desc, buf []byte, cb func(int, abi.Errno))
}

// writeMoved writes one kernel-owned buffer to a file, transferring
// ownership when the file keeps buffers (pipes and sockets), as one
// vectored write when it takes them (fs files), and through the scalar
// Write otherwise.
func writeMoved(d *Desc, buf []byte, cb func(int, abi.Errno)) {
	switch f := d.file.(type) {
	case movingWriter:
		f.moveIn(d, buf, cb)
	case vectoredWriter:
		f.Writev(d, [][]byte{buf}, cb)
	default:
		d.file.Write(d, buf, cb)
	}
}

// readGather reads up to total bytes from a file as a segment list with a
// single blocking point — POSIX readv semantics: block until some data (or
// EOF), then return whatever is immediately available, never waiting for
// the full count — and completes c with it. Pipes splice owned segments
// out, fs files gather at the offset, and other files (sockets among
// them) fall back to one scalar read, completing as one segment.
func readGather(d *Desc, total int, c *callCont) {
	switch f := d.file.(type) {
	case splicer:
		f.spliceCall(d, total, c)
	case vectoredReader:
		c.readv(f, d, total)
	case callReader:
		f.readCall(d, c, total, c.oneSeg)
	default:
		d.file.Read(d, total, c.oneSeg)
	}
}

// checkIovecs validates guest-supplied iovecs against the task's heap —
// an out-of-range pointer must fail the call, not panic the kernel.
func (t *Task) checkIovecs(iovs []abi.Iovec) abi.Errno {
	if t.heap == nil {
		return abi.EFAULT
	}
	hlen := int64(t.heap.Len())
	for _, iov := range iovs {
		// Ptr > hlen-Len rather than Ptr+Len > hlen: the sum can
		// overflow for a hostile pointer; the subtraction cannot once
		// Len is known to be in [0, hlen].
		if iov.Ptr < 0 || iov.Len < 0 || iov.Len > hlen || iov.Ptr > hlen-iov.Len {
			return abi.EFAULT
		}
	}
	return abi.OK
}

// scatterHeap copies gathered segments into the iovec targets in order,
// returning bytes written. This is the single per-byte copy (and charge)
// of the vectored read path.
func (t *Task) scatterHeap(iovs []abi.Iovec, segs [][]byte) int {
	n := 0
	iv := 0
	used := 0 // bytes already scattered into iovs[iv]
	for _, seg := range segs {
		for len(seg) > 0 && iv < len(iovs) {
			space := int(iovs[iv].Len) - used
			if space == 0 {
				iv++
				used = 0
				continue
			}
			take := len(seg)
			if take > space {
				take = space
			}
			t.heapWrite(iovs[iv].Ptr+int64(used), seg[:take])
			seg = seg[take:]
			used += take
			n += take
		}
	}
	return n
}

// writevBufs writes kernel-owned buffers to a file, preferring the
// ownership-transfer path.
func writevBufs(d *Desc, bufs [][]byte, done func(int64, abi.Errno)) {
	if len(bufs) == 0 {
		done(0, abi.OK)
		return
	}
	if vw, ok := d.file.(vectoredWriter); ok {
		vw.Writev(d, bufs, func(n int, err abi.Errno) {
			if err != abi.OK && n == 0 {
				done(-1, err)
				return
			}
			done(int64(n), abi.OK)
		})
		return
	}
	var total int64
	var loop func(i int)
	loop = func(i int) {
		if i == len(bufs) {
			done(total, abi.OK)
			return
		}
		d.file.Write(d, bufs[i], func(n int, err abi.Errno) {
			total += int64(n)
			if err != abi.OK {
				if total > 0 {
					done(total, abi.OK) // partial writev succeeded
				} else {
					done(-1, err)
				}
				return
			}
			loop(i + 1)
		})
	}
	loop(0)
}
