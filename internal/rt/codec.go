package rt

import (
	"encoding/binary"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/posix"
)

// The runtime's two syscall codecs. A posix.Proc method fills typed
// abi.Args once and calls r.call; the row of abi.Syscalls for the trap
// says how each argument and the result travel. The async codec posts
// the arguments as an abi.CallFrame and returns the abi.ReplyFrame's
// result; the sync codec stages the arguments in the heap's scratch
// region, issues the trap (scalar wake cell or ring frame), and reads
// the results back out of the heap — the inverse of the kernel's codecs.

// call issues one system call on the runtime's transport.
func (r *workerRT) call(trap int, a *abi.Args) abi.Result { return r.callOn(trap, a, false) }

// callLeased is call with any pending lease returns riding the same
// doorbell (close, dup2 and llseek, which drop a descriptor's leases).
func (r *workerRT) callLeased(trap int, a *abi.Args) abi.Result { return r.callOn(trap, a, true) }

func (r *workerRT) callOn(trap int, a *abi.Args, leased bool) abi.Result {
	row := &abi.Syscalls[trap]
	if !r.sync {
		f, ok := r.roundTrip(func(id int64) browser.Value { return &abi.CallFrame{ID: id, Trap: trap, Args: *a} }).(*abi.ReplyFrame)
		if !ok {
			return abi.Result{Ret: -1, Err: abi.EIO}
		}
		if row.Ret == abi.RetPollfds && f.Res.Err == abi.OK {
			for i := range a.Pollfds {
				a.Pollfds[i].Revents = 0
				if i < len(f.Res.Pollfds) {
					a.Pollfds[i].Revents = f.Res.Pollfds[i].Revents
				}
			}
		}
		return f.Res
	}
	var s staged
	r.stage(row, a, &s)
	var ret int64
	var err abi.Errno
	if leased {
		ret, err = r.syncCallLeased(trap, s.words[:s.n]...)
	} else {
		ret, err = r.syncCall(trap, s.words[:s.n]...)
	}
	return r.unstage(row, a, &s, ret, err)
}

var le = binary.LittleEndian

// staged is one call's heap staging: the trap's argument words and
// where its results land.
type staged struct {
	words [8]int64
	n     int
	out   int64       // result buffer or record
	iovs  []abi.Iovec // ArgLens targets
}

func (s *staged) push(w ...int64) {
	s.n += copy(s.words[s.n:], w)
}

// stage writes a's heap-addressed arguments into scratch in row order
// and collects the trap's words.
func (r *workerRT) stage(row *abi.Syscall, a *abi.Args, s *staged) {
	ni, ns, nl := 0, 0, 0
	for _, shape := range row.Args {
		switch shape {
		case abi.ArgInt, abi.ArgFd:
			s.push(a.Int[ni])
			ni++
		case abi.ArgOpt:
			if a.Int[ni] != 0 {
				s.push(a.Int[ni])
			}
			ni++
		case abi.ArgStr:
			s.push(r.putStr(a.Str[ns]))
			ns++
		case abi.ArgStrs:
			s.push(r.putStr(posix.JoinNul(a.Strs[nl])))
			nl++
		case abi.ArgBytes:
			s.push(r.putBytes(a.Bytes))
		case abi.ArgInts:
			buf := make([]byte, 4*len(a.Ints))
			for i, v := range a.Ints {
				le.PutUint32(buf[i*4:], uint32(int32(v)))
			}
			ptr, _ := r.putBytes(buf)
			s.push(ptr, int64(len(a.Ints)))
		case abi.ArgBufs:
			iovs := make([]abi.Iovec, len(a.Bufs))
			for i, b := range a.Bufs {
				ptr, n := r.putBytes(b)
				iovs[i] = abi.Iovec{Ptr: ptr, Len: n}
			}
			s.push(r.putIovecs(iovs), int64(len(iovs)))
		case abi.ArgLens:
			s.iovs = make([]abi.Iovec, len(a.Lens))
			for i, n := range a.Lens {
				s.iovs[i] = abi.Iovec{Ptr: r.alloc(int64(n)), Len: int64(n)}
			}
			s.push(r.putIovecs(s.iovs), int64(len(s.iovs)))
		case abi.ArgPollfds:
			buf := make([]byte, len(a.Pollfds)*abi.PollfdSize)
			abi.PackPollfds(buf, a.Pollfds)
			ptr, _ := r.putBytes(buf)
			s.out = ptr
			s.push(ptr, int64(len(a.Pollfds)))
		case abi.ArgOut, abi.ArgOutBuf:
			// A request larger than the scratch region degrades to a
			// short result rather than overflowing the staging area.
			n := a.Cap
			if max := r.maxScratchPayload(); n > max {
				n = max
			}
			s.out = r.alloc(n)
			s.push(s.out, n)
		case abi.ArgOutRec:
			s.out = r.alloc(row.Ret.RecSize())
			s.push(s.out)
		}
	}
}

// putIovecs stages an iovec table in scratch.
func (r *workerRT) putIovecs(iovs []abi.Iovec) int64 {
	ptr := r.alloc(int64(len(iovs) * abi.IovecSize))
	abi.PackIovecs(r.heap.Bytes()[ptr:], iovs)
	r.heap.MarkDirty(int(ptr), len(iovs)*abi.IovecSize)
	return ptr
}

// unstage reads a completed call's results back out of the heap.
func (r *workerRT) unstage(row *abi.Syscall, a *abi.Args, s *staged, ret int64, err abi.Errno) abi.Result {
	res := abi.Result{Ret: ret, Err: err}
	if err != abi.OK {
		return res
	}
	hb := r.heap.Bytes()
	switch row.Ret {
	case abi.RetBytes:
		res.Data = make([]byte, ret)
		copy(res.Data, hb[s.out:s.out+ret])
	case abi.RetSegs:
		n := ret
		for _, iov := range s.iovs {
			if n <= 0 {
				break
			}
			take := min(iov.Len, n)
			buf := make([]byte, take)
			copy(buf, hb[iov.Ptr:iov.Ptr+take])
			res.Segs = append(res.Segs, buf)
			n -= take
		}
	case abi.RetStat:
		res.Stat = abi.UnpackStat(hb[s.out : s.out+abi.StatSize])
	case abi.RetStr:
		res.Str = string(hb[s.out : s.out+ret])
	case abi.RetDirents:
		res.Ents = abi.UnpackDirents(hb[s.out : s.out+ret])
	case abi.RetPair:
		res.Aux = [2]int64{int64(int32(le.Uint32(hb[s.out:]))), int64(int32(le.Uint32(hb[s.out+4:])))}
	case abi.RetStatus:
		res.Aux[0] = int64(int32(le.Uint32(hb[s.out:])))
	case abi.RetPollfds:
		got := abi.UnpackPollfds(hb[s.out:], len(a.Pollfds))
		for i := range a.Pollfds {
			a.Pollfds[i].Revents = got[i].Revents
		}
	}
	return res
}
