package abi

import "encoding/binary"

// This file defines the shared-memory ring-buffer syscall transport's wire
// format: iovec records for the vectored readv/writev calls, and the
// framing of call/reply records flowing through a pair of single-producer
// single-consumer rings carved out of a process's SharedArrayBuffer heap.
//
// The rings are the fast path the paper's §3.2/§6 point toward: once a
// process has registered its heap, a system call is a handful of integer
// stores plus one wake, instead of a structured-cloned postMessage per
// call — and several calls can share a single kernel dispatch (reply
// batching), which is what makes pipe-heavy shell pipelines cheap.

// Iovec is one (pointer, length) scatter/gather element, addressing the
// process's shared heap.
type Iovec struct {
	Ptr int64
	Len int64
}

// IovecSize is the packed size of one Iovec.
const IovecSize = 16

// IovMax is the most scatter/gather elements one readv or writev takes
// (Linux's IOV_MAX); a longer list fails with EINVAL on every transport.
const IovMax = 1024

// PackIovecs writes iovs into b, returning bytes written. b must hold
// len(iovs)*IovecSize bytes.
func PackIovecs(b []byte, iovs []Iovec) int {
	le := binary.LittleEndian
	for i, iov := range iovs {
		le.PutUint64(b[i*IovecSize:], uint64(iov.Ptr))
		le.PutUint64(b[i*IovecSize+8:], uint64(iov.Len))
	}
	return len(iovs) * IovecSize
}

// UnpackIovecs decodes n iovec records from b.
func UnpackIovecs(b []byte, n int) []Iovec {
	le := binary.LittleEndian
	out := make([]Iovec, 0, n)
	for i := 0; i < n && (i+1)*IovecSize <= len(b); i++ {
		out = append(out, Iovec{
			Ptr: int64(le.Uint64(b[i*IovecSize:])),
			Len: int64(le.Uint64(b[i*IovecSize+8:])),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Ring framing.
//
// A Ring is a view over a byte region of the shared heap:
//
//	[0,4)  head — read cursor (index into the data area)
//	[4,8)  tail — write cursor
//	[8,..) data — circular byte buffer
//
// One side only pushes, the other only pops (the call ring is written by
// the process and drained by the kernel; the reply ring the reverse), so
// within the deterministic simulator plain loads/stores stand in for the
// Atomics the browser implementation would use. One byte of slack
// distinguishes full from empty, as in a classic circular buffer.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Heap layout.
//
// A synchronous process registers one SharedArrayBuffer heap with the
// personality call; the kernel and the runtime derive everything else
// from its length, through HeapRings:
//
//	[0,4)              wake cell (Atomics.wait / Atomics.notify)
//	[4, top-2R)        the runtime's own (argument scratch)
//	[top-2R, top-R)    request ring: call frames, process -> kernel
//	[top-R, top)       reply ring: reply frames, kernel -> process
//
// with R = HeapRingSize. A snapshot image holds this layout too, so a
// clone boot registers its restored heap exactly as a cold boot does.
// ---------------------------------------------------------------------------

const (
	// HeapWakeOff is the wake cell the process Atomics.waits on.
	HeapWakeOff = 0
	// HeapRingSize is each ring's region, cursor header included.
	HeapRingSize = 8 * 1024
	// HeapMinSize is the smallest heap that holds the layout.
	HeapMinSize = 4 + 2*HeapRingSize
)

// HeapRings wraps the request and reply rings of heap and returns the
// offset where they begin (the request ring's); ok is false when heap is
// smaller than HeapMinSize. It resets nothing: the process resets the
// cursors before it registers the heap.
func HeapRings(heap []byte) (req, rep Ring, off int, ok bool) {
	if len(heap) < HeapMinSize {
		return Ring{}, Ring{}, 0, false
	}
	off = len(heap) - 2*HeapRingSize
	return NewRing(heap[off : off+HeapRingSize]), NewRing(heap[off+HeapRingSize:]), off, true
}

// RingHdrSize is the cursor header before a ring's data area.
const RingHdrSize = 8

// Ring is a single-producer single-consumer byte ring over shared memory.
type Ring struct {
	B []byte // header + data, aliasing the shared heap
}

// NewRing wraps a shared-memory region as a ring without resetting it
// (both sides wrap the same bytes; only one should Reset).
func NewRing(b []byte) Ring { return Ring{B: b} }

func (r Ring) le() binary.ByteOrder { return binary.LittleEndian }

func (r Ring) head() int     { return int(r.le().Uint32(r.B[0:])) }
func (r Ring) tail() int     { return int(r.le().Uint32(r.B[4:])) }
func (r Ring) setHead(v int) { r.le().PutUint32(r.B[0:], uint32(v)) }
func (r Ring) setTail(v int) { r.le().PutUint32(r.B[4:], uint32(v)) }

// Reset zeroes the cursors (producer-side initialization).
func (r Ring) Reset() { r.setHead(0); r.setTail(0) }

func (r Ring) dataLen() int { return len(r.B) - RingHdrSize }

// cursors returns the head cursor and the bytes buffered behind it; ok
// is false when the head or the tail lies outside the data area. Both
// live in guest-writable memory, so nothing may index the ring with
// them before this check.
func (r Ring) cursors() (head, used int, ok bool) {
	head, tail, n := r.head(), r.tail(), r.dataLen()
	if head >= n || tail >= n {
		return 0, 0, false
	}
	if used = tail - head; used < 0 {
		used += n
	}
	return head, used, true
}

// Used returns the number of buffered bytes (0 when the cursors are
// corrupt).
func (r Ring) Used() int {
	_, used, _ := r.cursors()
	return used
}

// Free returns the bytes that may be pushed without overwriting (one byte
// of slack is reserved to distinguish full from empty); 0 when the
// cursors are corrupt, so nothing is pushed through them.
func (r Ring) Free() int {
	if _, used, ok := r.cursors(); ok {
		return r.dataLen() - 1 - used
	}
	return 0
}

// copyIn writes b at cursor position pos (mod data size).
func (r Ring) copyIn(pos int, b []byte) {
	data := r.B[RingHdrSize:]
	n := copy(data[pos:], b)
	if n < len(b) {
		copy(data, b[n:])
	}
}

// copyOut fills dst from cursor position pos.
func (r Ring) copyOut(dst []byte, pos int) {
	data := r.B[RingHdrSize:]
	m := copy(dst, data[pos:])
	if m < len(dst) {
		copy(dst[m:], data)
	}
}

func (r Ring) advance(pos, n int) int { return (pos + n) % r.dataLen() }

// Call-frame layout: size u32 (bytes after this field), seq u32, trap u32,
// nargs u32, then nargs little-endian u64 arguments.
const callFrameHdr = 16

// maxCallArgs bounds a call frame's arguments, and so its size.
const maxCallArgs = 16

// ReplyFrameSize is the reply-frame layout size: size u32, seq u32,
// ret u64, errno u32. Exported so the producer can bound a batch by the
// reply ring's capacity.
const ReplyFrameSize = 20

// PushCall appends a call frame; it reports false when the ring is full
// (the producer waits for the consumer to drain and pushes again).
func (r Ring) PushCall(seq uint32, trap int, args []int64) bool {
	need := callFrameHdr + 8*len(args)
	if len(args) > maxCallArgs || need > r.Free() {
		return false
	}
	var buf [callFrameHdr + 8*maxCallArgs]byte
	le := r.le()
	le.PutUint32(buf[0:], uint32(need-4))
	le.PutUint32(buf[4:], seq)
	le.PutUint32(buf[8:], uint32(trap))
	le.PutUint32(buf[12:], uint32(len(args)))
	for i, a := range args {
		le.PutUint64(buf[callFrameHdr+8*i:], uint64(a))
	}
	r.copyIn(r.tail(), buf[:need])
	r.setTail(r.advance(r.tail(), need))
	return true
}

// CallWords is caller-owned storage one call frame's arguments decode
// into, so popping a frame allocates nothing.
type CallWords [maxCallArgs]int64

// PopCallInto removes and decodes the next call frame into dst; args is
// dst's first nargs words. The ring lives in guest-writable memory: a
// cursor outside the data area, a frame size no call frame has, or an
// nargs that disagrees with the size resets the ring (the two sides no
// longer agree on framing) and pops nothing.
func (r Ring) PopCallInto(dst *CallWords) (seq uint32, trap int, args []int64, ok bool) {
	head, used, ok := r.cursors()
	if !ok {
		r.Reset()
		return 0, 0, nil, false
	}
	if used < callFrameHdr {
		return 0, 0, nil, false
	}
	le := r.le()
	var frame [callFrameHdr + 8*maxCallArgs]byte
	r.copyOut(frame[:callFrameHdr], head)
	size := int(le.Uint32(frame[0:])) + 4
	if size < callFrameHdr || size > len(frame) {
		r.Reset()
		return 0, 0, nil, false
	}
	if used < size {
		return 0, 0, nil, false
	}
	r.copyOut(frame[:size], head)
	seq = le.Uint32(frame[4:])
	trap = int(le.Uint32(frame[8:]))
	nargs := int(le.Uint32(frame[12:]))
	if nargs > maxCallArgs || callFrameHdr+8*nargs != size {
		r.Reset()
		return 0, 0, nil, false
	}
	args = dst[:nargs]
	for i := range args {
		args[i] = int64(le.Uint64(frame[callFrameHdr+8*i:]))
	}
	r.setHead(r.advance(head, size))
	return seq, trap, args, true
}

// PushReply appends a reply frame; false when full or when the cursors
// are corrupt (the kernel queues the reply and retries after the
// consumer drains).
func (r Ring) PushReply(seq uint32, ret int64, errno Errno) bool {
	if ReplyFrameSize > r.Free() {
		return false
	}
	var buf [ReplyFrameSize]byte
	le := r.le()
	le.PutUint32(buf[0:], ReplyFrameSize-4)
	le.PutUint32(buf[4:], seq)
	le.PutUint64(buf[8:], uint64(ret))
	le.PutUint32(buf[16:], uint32(int32(errno)))
	r.copyIn(r.tail(), buf[:])
	r.setTail(r.advance(r.tail(), ReplyFrameSize))
	return true
}

// Reply is one completed call of a batch — the unit of the batched-reply
// framing. When the kernel drains a doorbell it collects every completion
// that happened inside the batch dispatch and lands them with a single
// PushReplies pass followed by one wake, instead of a push (and
// potentially a wake) per call.
type Reply struct {
	Seq   uint32
	Ret   int64
	Errno Errno
}

// PushReplies appends as many reply frames as fit, in order, returning
// the count pushed. Callers queue the remainder (the kernel's overflow
// list) and retry after the consumer drains.
func (r Ring) PushReplies(reps []Reply) int {
	n := 0
	for _, rep := range reps {
		if !r.PushReply(rep.Seq, rep.Ret, rep.Errno) {
			break
		}
		n++
	}
	return n
}

// PopReply removes and decodes the next reply frame.
func (r Ring) PopReply() (seq uint32, ret int64, errno Errno, ok bool) {
	head, used, ok := r.cursors()
	if !ok || used < ReplyFrameSize {
		return 0, 0, OK, false
	}
	var frame [ReplyFrameSize]byte
	r.copyOut(frame[:], head)
	le := r.le()
	seq = le.Uint32(frame[4:])
	ret = int64(le.Uint64(frame[8:]))
	errno = Errno(int32(le.Uint32(frame[16:])))
	r.setHead(r.advance(head, ReplyFrameSize))
	return seq, ret, errno, true
}
