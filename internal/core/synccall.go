package core

import (
	"encoding/binary"
	"strings"

	"repro/internal/abi"
	"repro/internal/fs"
)

// The heap codec: the synchronous system-call transport (§3.2).
// Arguments are "just integers and integer offsets (representing
// pointers) into the shared memory array". String arguments arrive as
// (ptr, len) pairs; output buffers as (ptr, len). For calls like pread,
// "data is copied directly from the filesystem, pipe or socket into the
// process's heap, avoiding a potentially large allocation and extra
// copy". The scalar path and the ring drain both decode frames here.
//
// This file holds the kernel's only copies into and out of a guest heap.
// Every (ptr, len) a frame names is checked against the heap before the
// call runs: a bad one fails the call with EFAULT instead of slicing.
//
// Completion protocol: the kernel writes ret (int64) at the task's
// registered retOff and errno (int32) at retOff+8, stores 1 into the wake
// cell, and Atomics.notify's it. The process zeroes the wake cell before
// each call and Atomics.wait's on it.

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

// heapBytes copies a checked (ptr,len) buffer out of the heap.
func (t *Task) heapBytes(ptr, n int64) []byte {
	k := t.k
	k.Sys.Sim.Charge(int64(float64(n) * k.CPU.SyncByteNs))
	out := make([]byte, n)
	copy(out, t.heap.Bytes()[ptr:ptr+n])
	return out
}

// heapWrite copies data into a checked heap range at ptr.
func (t *Task) heapWrite(ptr int64, data []byte) {
	k := t.k
	k.Sys.Sim.Charge(int64(float64(len(data)) * k.CPU.SyncByteNs))
	copy(t.heap.Bytes()[ptr:], data)
	t.heap.MarkDirty(int(ptr), len(data))
}

// syncReply completes a synchronous call: results into the heap, then
// wake the blocked worker thread.
func (k *Kernel) syncReply(t *Task, ret int64, err abi.Errno) {
	if t.heap == nil || t.state == taskZombie {
		return
	}
	b := t.heap.Bytes()
	le.PutUint64(b[t.retOff:], uint64(ret))
	le.PutUint32(b[t.retOff+8:], uint32(int32(err)))
	t.heap.Store32(t.waitOff, 1)
	k.Sys.FutexNotify(t.heap, t.waitOff, 1)
}

var le = binary.LittleEndian

// dispatchSync decodes and executes a synchronous system call, completing
// it through the wake-cell reply protocol. It routes through the same
// batch entry point as the ring transport — with batch size 1 — so the
// scalar path can never diverge from a drained doorbell's behaviour.
func (k *Kernel) dispatchSync(t *Task, trap int, a []int64) {
	if t.heap == nil {
		return // no personality registered; nothing to wake
	}
	k.dispatchBatch(t, []pendingCall{{trap: trap, args: a}}, func(_ uint32, ret int64, err abi.Errno) {
		k.syncReply(t, ret, err)
	})
}

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
// typed arguments, run the trap's op, and encode its result into the
// caller's heap. Calls only the heap carries run their own codec-local
// op on the raw words. done receives the frame's completion.
func (k *Kernel) heapCall(t *Task, c pendingCall, done func(seq uint32, ret int64, err abi.Errno)) {
	seq := c.seq
	if c.trap <= 0 || c.trap >= abi.SYS_max {
		done(seq, -1, abi.ENOSYS)
		return
	}
	if local := heapLocal[c.trap]; local != nil {
		local(k, t, c.args, func(ret int64, err abi.Errno) { done(seq, ret, err) })
		return
	}
	row := &abi.Syscalls[c.trap]
	op := sysOps[c.trap]
	if op == nil || row.Transport != abi.Both {
		done(seq, -1, abi.ENOSYS)
		return
	}
	a, out, err := t.heapArgs(row, c.args)
	if err != abi.OK {
		done(seq, -1, err)
		return
	}
	shape, d := row.Ret, a.d
	op(k, t, a, func(r abi.Result) {
		ret, err := t.heapResult(shape, out, d, r)
		done(seq, ret, err)
	})
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
		if n <= 0 || n > 1024 {
			return 0, 0, 0, abi.EINVAL
		}
		return ptr, n, abi.IovecSize, abi.OK
	case abi.ArgPollfds:
		if n < 0 || n > 4096 {
			return 0, 0, 0, abi.EINVAL
		}
		return ptr, n, abi.PollfdSize, abi.OK
	}
	return ptr, n, 1, abi.OK // strings, byte buffers, result buffers
}

// heapArgs decodes a frame's words into typed arguments. First every
// guest range the row names is checked, with nothing read or charged;
// then the arguments are copied out in row order, each charged per byte
// as it crosses, and an ArgFd is looked up where it stands.
func (t *Task) heapArgs(row *abi.Syscall, w []int64) (a callArgs, out heapOut, err abi.Errno) {
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
				a.Lens = make([]int, len(iovs))
				for j, iov := range iovs {
					a.Lens[j] = int(iov.Len)
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
			a.Pollfds = abi.UnpackPollfds(t.heapBytes(ptr, n*abi.PollfdSize), int(n))
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
			t.heapWrite(out.ptr, r.Data)
			k.ReadCopiedBytes.Add(int64(len(r.Data)))
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
			buf := make([]byte, len(r.Pollfds)*abi.PollfdSize)
			abi.PackPollfds(buf, r.Pollfds)
			t.heapWrite(out.ptr, buf)
		}
	}
	return r.Ret, r.Err
}

// heapLocalOp is a call only the heap transport carries, run on the
// frame's raw words.
type heapLocalOp func(k *Kernel, t *Task, w []int64, done func(int64, abi.Errno))

var heapLocal = [abi.SYS_max]heapLocalOp{
	abi.SYS_readg:   (*Kernel).sysReadg,
	abi.SYS_unlease: (*Kernel).sysUnlease,
	abi.SYS_wgalloc: func(k *Kernel, t *Task, w []int64, done func(int64, abi.Errno)) {
		// Write-grant allocation: lease empty staging slots for the
		// zero-copy write path. Words: count, grantPtr.
		k.doWgalloc(t, int(word(w, 0)), word(w, 1), done)
	},
	abi.SYS_writeg: (*Kernel).sysWriteg,
}

// sysReadg is read-with-grant: the zero-copy read path's single kernel
// entry. A warm page-cache hit on the ring transport answers with pinned
// page leases; everything else — cold pages, pipes, the scalar
// transport, DisableZeroCopy — falls through to the copy path, producing
// byte-identical results with one payload copy.
//
// Words: fd, bufPtr, bufLen (the caller's staging buffer — the copy
// fallback's cap), grantPtr, maxGrants, wantN (the full request). wantN
// may far exceed bufLen: grants are not bounded by the caller's staging
// region, so a warm multi-megabyte read is one crossing where the copy
// path must loop — the structural win of the mapping. A cold oversized
// read degrades to a short (bufLen) result, which POSIX read permits.
func (k *Kernel) sysReadg(t *Task, w []int64, done func(int64, abi.Errno)) {
	d, err := t.lookFd(int(word(w, 0)))
	if err != abi.OK {
		done(-1, err)
		return
	}
	bufPtr, bufLen, grantPtr, maxGrants := word(w, 1), int(word(w, 2)), word(w, 3), int(word(w, 4))
	want := int(word(w, 5))
	if want <= 0 {
		want = bufLen
	}
	if bufLen < 0 || want < 0 || maxGrants < 0 || maxGrants > 4096 {
		done(-1, abi.EINVAL)
		return
	}
	if err := t.readgRanges(w); err != abi.OK {
		done(-1, err)
		return
	}
	resolve := func() {
		if t.pool && t.ring != nil && !k.DisableZeroCopy {
			if rf, ok := d.file.(refReader); ok {
				if refs, ok := rf.ReadRef(d, want, maxGrants); ok {
					k.LeaseGrants.Add(int64(len(refs)))
					grants := make([]abi.PageGrant, len(refs))
					var granted int64
					for i, r := range refs {
						if t.leases == nil {
							t.leases = map[int]int{}
						}
						t.leases[r.Slot]++
						grants[i] = abi.PageGrant{
							Slot: uint32(r.Slot), Len: uint32(r.Len),
							Off: r.Off, Gen: r.Gen,
						}
						granted += int64(r.Len)
					}
					k.GrantedBytes.Add(granted)
					buf := make([]byte, abi.GrantAreaSize(len(grants)))
					abi.PackGrantReply(buf, abi.GrantMapped, grants)
					t.heapWrite(grantPtr, buf)
					done(granted, abi.OK)
					return
				}
			}
		}
		readGather(d, bufLen, func(segs [][]byte, rerr abi.Errno) {
			if rerr != abi.OK {
				done(-1, rerr)
				return
			}
			var hdr [abi.GrantHdrSize]byte
			abi.PackGrantReply(hdr[:], abi.GrantCopied, nil)
			t.heapWrite(grantPtr, hdr[:])
			var total int64
			for _, s := range segs {
				t.heapWrite(bufPtr+total, s)
				total += int64(len(s))
			}
			k.ReadCopiedBytes.Add(total)
			done(total, abi.OK)
		})
	}
	// A readg against an empty pipe parks a grant-capable notify instead
	// of resolving now: ReadRef refuses an empty pipe, and falling
	// straight to readGather would park a copying splice — every byte of
	// a lockstep pipeline (the reader usually blocks first) would then
	// cross by copy. Parking the *resolution* keeps the grant attempt
	// first once data arrives.
	if pe, ok := d.file.(*pipeEnd); ok && pe.reader {
		pe.p.readNotify(resolve)
		return
	}
	resolve()
}

// readgRanges checks a readg frame's staging buffer and grant area.
func (t *Task) readgRanges(w []int64) abi.Errno {
	if err := t.heapRange(word(w, 1), word(w, 2), 1); err != abi.OK {
		return err
	}
	return t.heapRange(word(w, 3), int64(abi.GrantAreaSize(int(word(w, 4)))), 1)
}

// sysUnlease is lease reclaim: return page leases taken by earlier readg
// grants. ret counts the leases actually returned; unknown slots are
// ignored (a lease can also have been reclaimed by exit). Words: ptr,
// count of uint32 slots.
func (k *Kernel) sysUnlease(t *Task, w []int64, done func(int64, abi.Errno)) {
	ptr, cnt := word(w, 0), word(w, 1)
	if cnt < 0 || cnt > 4096 {
		done(-1, abi.EINVAL)
		return
	}
	if err := t.heapRange(ptr, cnt, 4); err != abi.OK {
		done(-1, err)
		return
	}
	slots := abi.UnpackSlots(t.heapBytes(ptr, cnt*4), int(cnt))
	var freed int64
	for _, s := range slots {
		slot := int(s)
		if t.leases[slot] == 0 {
			continue
		}
		t.leases[slot]--
		if t.leases[slot] == 0 {
			delete(t.leases, slot)
		}
		// A write-staging lease retires on its first return: the fs side
		// releases staging ownership then too, so later writeg
		// references to the slot must already be refused.
		delete(t.wstaged, slot)
		k.FS.UnleasePage(slot)
		k.LeaseReturns.Add(1)
		freed++
	}
	done(freed, abi.OK)
}

// sysWriteg is write-by-reference: the payload is already staged in
// leased slots; only the 12-byte references cross the heap. Words: fd,
// refPtr, refCnt.
func (k *Kernel) sysWriteg(t *Task, w []int64, done func(int64, abi.Errno)) {
	ptr, cnt := word(w, 1), word(w, 2)
	if cnt <= 0 || cnt > 1024 {
		done(-1, abi.EINVAL)
		return
	}
	if err := t.heapRange(ptr, cnt, abi.WriteRefSize); err != abi.OK {
		done(-1, err)
		return
	}
	wrefs := abi.UnpackWriteRefs(t.heapBytes(ptr, cnt*abi.WriteRefSize), int(cnt))
	refs := make([]fs.SlotRef, len(wrefs))
	for i, r := range wrefs {
		refs[i] = fs.SlotRef{Slot: int(r.Slot), Off: int(r.Off), Len: int(r.Len)}
	}
	k.doWriteg(t, int(word(w, 0)), refs, done)
}

// splitNul splits a NUL-separated packed string list.
func splitNul(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(s, "\x00"), "\x00")
}
