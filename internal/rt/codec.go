package rt

import (
	"encoding/binary"

	"repro/internal/abi"
	"repro/internal/posix"
)

// The runtime's two syscall codecs. A posix.Proc method fills typed
// abi.Args once and calls r.call; the row of abi.Syscalls for the trap
// says how each argument and the result travel. The async codec posts
// the arguments as an abi.CallFrame and returns the abi.ReplyFrame's
// result; it carries every call of an async runtime and the AsyncOnly
// rows (fork, personality, snapcap) of a sync one. The sync codec stages
// the arguments in the heap's scratch region, issues the trap as a ring
// frame, and reads the results back out of the heap — the inverse of the
// kernel's codecs. A sync runtime never sends readv or writev frames
// (Readv reads the total, Writev fans out into write frames), so the
// sync codec stages no iovec tables.

// call issues one system call on the runtime's transport.
func (r *workerRT) call(trap int, a *abi.Args) abi.Result {
	row := &abi.Syscalls[trap]
	if !r.sync || row.Transport == abi.AsyncOnly {
		f := r.roundTrip(trap, a)
		if f == nil {
			return abi.Result{Ret: -1, Err: abi.EIO}
		}
		res := f.Res
		if row.Ret == abi.RetPollfds && res.Err == abi.OK {
			// The reply's records are the call's own array when the
			// kernel moved it back, so each revent is read before
			// the caller's record is written.
			for i := range a.Pollfds {
				var rev uint32
				if i < len(res.Pollfds) {
					rev = res.Pollfds[i].Revents
				}
				a.Pollfds[i].Revents = rev
			}
		}
		f.Release()
		return res
	}
	var s staged
	r.stage(row, a, &s)
	rets, errs := r.ringCalls([]ringReq{{trap: trap, args: s.words[:s.n]}})
	return r.unstage(row, a, &s, rets[0], errs[0])
}

var le = binary.LittleEndian

// staged is one call's heap staging: the trap's argument words and
// where its results land.
type staged struct {
	words [8]int64
	n     int
	out   int64 // result buffer or record
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
		case abi.ArgPollfds:
			n := len(a.Pollfds) * abi.PollfdSize
			ptr := r.alloc(int64(n))
			abi.PackPollfds(r.heap.Bytes()[ptr:], a.Pollfds)
			r.heap.MarkDirty(int(ptr), n)
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
		abi.UnpackRevents(hb[s.out:], a.Pollfds)
	}
	return res
}
