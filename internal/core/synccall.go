package core

import (
	"encoding/binary"
	"strings"

	"repro/internal/abi"
)

// The heap codec: the synchronous system-call transport (§3.2).
// Arguments are "just integers and integer offsets (representing
// pointers) into the shared memory array". String arguments arrive as
// (ptr, len) pairs; output buffers as (ptr, len). For calls like pread,
// "data is copied directly from the filesystem, pipe or socket into the
// process's heap, avoiding a potentially large allocation and extra
// copy". The ring drain (ring.go) decodes every call frame here.
//
// This file holds the kernel's only copies into and out of a guest heap.
// Every (ptr, len) a frame names is checked against the heap before the
// call runs: a bad one fails the call with EFAULT instead of slicing.

// heapRange checks that n elements of size elem at ptr lie inside the
// heap. The comparisons are arranged so no product or sum can overflow
// for hostile inputs.
func (t *Task) heapRange(ptr, n, elem int64) abi.Errno {
	hlen := int64(t.heap.Len())
	if n < 0 {
		return abi.EINVAL
	}
	if ptr < 0 || n > hlen/elem || ptr > hlen-n*elem {
		return abi.EFAULT
	}
	return abi.OK
}

// heapStr reads a checked (ptr,len) string argument out of the heap.
func (t *Task) heapStr(ptr, n int64) string {
	k := t.k
	k.Sys.Sim.Charge(int64(float64(n) * k.CPU.SyncByteNs))
	return string(t.heap.Bytes()[ptr : ptr+n])
}

// heapView charges a checked (ptr,len) buffer's crossing out of the
// heap and returns the heap's bytes there, for a decoder that copies
// them before the guest runs again.
func (t *Task) heapView(ptr, n int64) []byte {
	k := t.k
	k.Sys.Sim.Charge(int64(float64(n) * k.CPU.SyncByteNs))
	return t.heap.Bytes()[ptr : ptr+n]
}

// heapBytes copies a checked (ptr,len) buffer out of the heap.
func (t *Task) heapBytes(ptr, n int64) []byte {
	out := make([]byte, n)
	copy(out, t.heapView(ptr, n))
	return out
}

// heapWrite copies data into a checked heap range at ptr.
func (t *Task) heapWrite(ptr int64, data []byte) {
	t.heapWrote(ptr, copy(t.heap.Bytes()[ptr:], data))
}

// heapWrote charges the crossing of n bytes just written into the heap
// at ptr and marks them dirty.
func (t *Task) heapWrote(ptr int64, n int) {
	t.k.Sys.Sim.Charge(int64(float64(n) * t.k.CPU.SyncByteNs))
	t.heap.MarkDirty(int(ptr), n)
}

// heapWritePayload copies a read's payload into a checked heap range at
// ptr: Data, or a gathered read's Segs back to back (they may be views
// of cache pages, so this is their one copy). One per-byte charge covers
// the whole payload. Returns the bytes written.
func (t *Task) heapWritePayload(ptr int64, r abi.Result) int64 {
	if r.Data != nil || r.Segs == nil {
		t.heapWrite(ptr, r.Data)
		return int64(len(r.Data))
	}
	n := 0
	for _, s := range r.Segs {
		n += copy(t.heap.Bytes()[ptr+int64(n):], s)
	}
	t.heapWrote(ptr, n)
	return int64(n)
}

var le = binary.LittleEndian

// word returns frame word i, or 0 past the end.
func word(w []int64, i int) int64 {
	if i < len(w) {
		return w[i]
	}
	return 0
}

// heapOut is where a decoded call's result lands in the heap.
type heapOut struct {
	ptr, cap int64
	iovs     []abi.Iovec // ArgLens targets
}

// heapCall runs one heap-addressed call frame: decode the frame into
// typed arguments, and run the trap's op with a continuation record
// that encodes its result into the caller's heap. done receives the
// frame's completion.
func (k *Kernel) heapCall(t *Task, c pendingCall, done func(seq uint32, ret int64, err abi.Errno)) {
	seq := c.seq
	if c.trap <= 0 || c.trap >= abi.SYS_max {
		done(seq, -1, abi.ENOSYS)
		return
	}
	row := &abi.Syscalls[c.trap]
	op := sysOps[c.trap]
	if op == nil || row.Transport != abi.Both {
		done(seq, -1, abi.ENOSYS)
		return
	}
	cont := t.takeCont(c.trap)
	a, out, err := t.heapArgs(row, c.args, &cont.heapPollfds)
	if err != abi.OK {
		t.dropCont(cont)
		done(seq, -1, err)
		return
	}
	cont.ring, cont.reg, cont.seq, cont.out, cont.d = done, t.ring, seq, out, a.d
	op(k, t, a, cont)
}

// argWords is how many frame words an argument of the given shape takes.
func argWords(shape abi.Arg) int {
	switch shape {
	case abi.ArgZero:
		return 0
	case abi.ArgInt, abi.ArgFd, abi.ArgOpt, abi.ArgOutRec:
		return 1
	}
	return 2
}

// heapExtent returns the guest range (ptr, count, element size; elem 0
// for none) that the argument of the given shape at word i names. Counts
// past a call's limit fail with EINVAL.
func heapExtent(shape abi.Arg, ret abi.Ret, w []int64, i int) (ptr, n, elem int64, err abi.Errno) {
	ptr, n = word(w, i), word(w, i+1)
	switch shape {
	case abi.ArgInt, abi.ArgFd, abi.ArgOpt, abi.ArgZero:
		return 0, 0, 0, abi.OK
	case abi.ArgOutRec:
		if ret == abi.RetStatus && ptr == 0 {
			return 0, 0, 0, abi.OK // no status wanted
		}
		return ptr, ret.RecSize(), 1, abi.OK
	case abi.ArgInts:
		return ptr, n, 4, abi.OK
	case abi.ArgBufs, abi.ArgLens:
		if n <= 0 || n > abi.IovMax {
			return 0, 0, 0, abi.EINVAL
		}
		return ptr, n, abi.IovecSize, abi.OK
	case abi.ArgPollfds:
		if n < 0 || n > abi.PollfdMax {
			return 0, 0, 0, abi.EINVAL
		}
		return ptr, n, abi.PollfdSize, abi.OK
	}
	return ptr, n, 1, abi.OK // strings, byte buffers, result buffers
}

// heapArgs decodes a frame's words into typed arguments. First every
// guest range the row names is checked, with nothing read or charged;
// then the arguments are copied out in row order, each charged per byte
// as it crosses, and an ArgFd is looked up where it stands. Pollfds
// are decoded into *pollfds, the call's record buffer, which keeps its
// array for the record's next heap poll.
func (t *Task) heapArgs(row *abi.Syscall, w []int64, pollfds *[]abi.Pollfd) (a callArgs, out heapOut, err abi.Errno) {
	i := 0
	for _, shape := range row.Args {
		ptr, n, elem, err := heapExtent(shape, row.Ret, w, i)
		if err == abi.OK && elem > 0 {
			err = t.heapRange(ptr, n, elem)
		}
		if err != abi.OK {
			return a, out, err
		}
		i += argWords(shape)
	}
	k := t.k
	ni, ns, nl := 0, 0, 0
	i = 0
	for _, shape := range row.Args {
		ptr, n := word(w, i), word(w, i+1)
		i += argWords(shape)
		switch shape {
		case abi.ArgInt, abi.ArgOpt:
			a.Int[ni] = ptr
			ni++
		case abi.ArgFd:
			a.Int[ni] = ptr
			ni++
			if a.d, err = t.lookFd(int(ptr)); err != abi.OK {
				return a, out, err
			}
		case abi.ArgStr:
			a.Str[ns] = t.heapStr(ptr, n)
			ns++
		case abi.ArgStrs:
			a.Strs[nl] = splitNul(t.heapStr(ptr, n))
			nl++
		case abi.ArgBytes:
			a.Bytes = t.heapBytes(ptr, n)
			k.WriteCopiedBytes.Add(n)
		case abi.ArgInts:
			if n > 0 {
				raw := t.heapBytes(ptr, n*4)
				a.Ints = make([]int, n)
				for j := range a.Ints {
					a.Ints[j] = int(int32(le.Uint32(raw[4*j:])))
				}
			}
		case abi.ArgBufs, abi.ArgLens:
			iovs := abi.UnpackIovecs(t.heapBytes(ptr, n*abi.IovecSize), int(n))
			if err := t.checkIovecs(iovs); err != abi.OK {
				return a, out, err
			}
			if shape == abi.ArgLens {
				out.iovs = iovs
				a.Ints = make([]int, len(iovs))
				for j, iov := range iovs {
					a.Ints[j] = int(iov.Len)
				}
				continue
			}
			a.Bufs = make([][]byte, 0, len(iovs))
			for _, iov := range iovs {
				if iov.Len > 0 {
					a.Bufs = append(a.Bufs, t.heapBytes(iov.Ptr, iov.Len))
					k.WriteCopiedBytes.Add(iov.Len)
				}
			}
		case abi.ArgPollfds:
			*pollfds = abi.AppendPollfds((*pollfds)[:0], t.heapView(ptr, n*abi.PollfdSize), int(n))
			a.Pollfds = *pollfds
			out.ptr = ptr
		case abi.ArgOut, abi.ArgOutBuf:
			out.ptr, out.cap, a.Cap = ptr, n, n
		case abi.ArgOutRec:
			out.ptr = ptr
		}
	}
	return a, out, abi.OK
}

// heapResult encodes a completed call into the caller's heap and returns
// the (ret, errno) pair the frame completes with.
func (t *Task) heapResult(shape abi.Ret, out heapOut, d *Desc, r abi.Result) (int64, abi.Errno) {
	k := t.k
	switch shape {
	case abi.RetBytes:
		if r.Err == abi.OK {
			k.ReadCopiedBytes.Add(t.heapWritePayload(out.ptr, r))
		}
	case abi.RetSegs:
		if r.Err != abi.OK {
			return -1, r.Err
		}
		n := t.scatterHeap(out.iovs, r.Segs)
		k.ReadCopiedBytes.Add(int64(n))
		return int64(n), abi.OK
	case abi.RetStat:
		if r.Err == abi.OK {
			var buf [abi.StatSize]byte
			abi.PackStat(buf[:], r.Stat)
			t.heapWrite(out.ptr, buf[:])
		}
	case abi.RetStr:
		if r.Err != abi.OK {
			return -1, r.Err
		}
		b := []byte(r.Str)
		if int64(len(b)) > out.cap {
			b = b[:out.cap]
		}
		t.heapWrite(out.ptr, b)
		return int64(len(b)), abi.OK
	case abi.RetDirents:
		if r.Err != abi.OK {
			return -1, r.Err
		}
		buf := make([]byte, out.cap)
		n, consumed := abi.PackDirents(buf, r.Ents)
		if consumed == 0 && len(r.Ents) > 0 {
			// Buffer too small for even one record: an empty result
			// would read as end-of-directory (silent truncation).
			// Rewind the cursor and fail, as Linux getdents does.
			d.off -= int64(len(r.Ents))
			return -1, abi.EINVAL
		}
		if consumed < len(r.Ents) {
			// The guest's buffer was smaller than the chunk: hand the
			// unpacked tail back to the directory cursor so the next
			// getdents continues there.
			d.off -= int64(len(r.Ents) - consumed)
		}
		t.heapWrite(out.ptr, buf[:n])
		return int64(n), abi.OK
	case abi.RetPair:
		var buf [8]byte
		le.PutUint32(buf[0:], uint32(r.Aux[0]))
		le.PutUint32(buf[4:], uint32(r.Aux[1]))
		t.heapWrite(out.ptr, buf[:])
	case abi.RetStatus:
		if r.Err == abi.OK && out.ptr != 0 {
			var buf [4]byte
			le.PutUint32(buf[:], uint32(int32(r.Aux[0])))
			t.heapWrite(out.ptr, buf[:])
		}
	case abi.RetPollfds:
		if r.Err == abi.OK {
			// The records land where they were decoded from.
			t.heapWrote(out.ptr, abi.PackPollfds(t.heap.Bytes()[out.ptr:], r.Pollfds))
		}
	}
	return r.Ret, r.Err
}

// splitNul splits a NUL-separated packed string list.
func splitNul(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(s, "\x00"), "\x00")
}
