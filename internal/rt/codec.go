package rt

import (
	"encoding/binary"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/posix"
)

// The runtime's two syscall codecs. A posix.Proc method fills typed
// abi.Args once and calls r.call; the row of abi.Syscalls for the trap
// says how each argument and the result travel. The async codec clones
// the arguments into a postMessage and decodes the reply's extra
// values; the sync codec stages the arguments in the heap's scratch
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
		return asyncResult(row, a, r.asyncCall(row.Name, asyncArgs(row, a)...))
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

// asyncArgs encodes typed arguments as a cloned argument list.
func asyncArgs(row *abi.Syscall, a *abi.Args) []browser.Value {
	n := 0
	for _, shape := range row.Args {
		if shape != abi.ArgOutBuf && shape != abi.ArgOutRec {
			n++
		}
	}
	vals := make([]browser.Value, 0, n)
	ni, ns, nl := 0, 0, 0
	for _, shape := range row.Args {
		switch shape {
		case abi.ArgInt, abi.ArgFd:
			vals = append(vals, a.Int[ni])
			ni++
		case abi.ArgOpt:
			if a.Int[ni] != 0 {
				vals = append(vals, a.Int[ni])
			}
			ni++
		case abi.ArgZero:
			vals = append(vals, int64(0))
		case abi.ArgStr:
			vals = append(vals, a.Str[ns])
			ns++
		case abi.ArgStrs:
			vals = append(vals, browser.StringArray(a.Strs[nl]))
			nl++
		case abi.ArgBytes:
			vals = append(vals, a.Bytes)
		case abi.ArgInts, abi.ArgLens:
			list := a.Ints
			if shape == abi.ArgLens {
				list = a.Lens
			}
			arr := make([]browser.Value, len(list))
			for i, v := range list {
				arr[i] = int64(v)
			}
			vals = append(vals, arr)
		case abi.ArgBufs:
			arr := make([]browser.Value, len(a.Bufs))
			for i, b := range a.Bufs {
				arr[i] = b
			}
			vals = append(vals, arr)
		case abi.ArgPollfds:
			raw := make([]browser.Value, 0, len(a.Pollfds)*2)
			for _, f := range a.Pollfds {
				raw = append(raw, int64(f.Fd), int64(f.Events))
			}
			vals = append(vals, raw)
		case abi.ArgOut:
			vals = append(vals, a.Cap)
		}
	}
	return vals
}

var le = binary.LittleEndian

// vi reads reply value i as an integer.
func vi(ret []browser.Value, i int) int64 {
	if i < len(ret) {
		return browser.Int(ret[i])
	}
	return 0
}

func verr(ret []browser.Value) abi.Errno { return abi.Errno(vi(ret, 1)) }

// asyncResult decodes a [ret, errno, extra...] reply.
func asyncResult(row *abi.Syscall, a *abi.Args, ret []browser.Value) abi.Result {
	res := abi.Result{Ret: vi(ret, 0), Err: verr(ret)}
	if res.Err != abi.OK {
		return res
	}
	var extra browser.Value
	if len(ret) > 2 {
		extra = ret[2]
	}
	switch row.Ret {
	case abi.RetBytes:
		res.Data, _ = extra.([]byte)
	case abi.RetSegs:
		arr, _ := extra.([]browser.Value)
		for _, v := range arr {
			if b, ok := v.([]byte); ok && len(b) > 0 {
				res.Segs = append(res.Segs, b)
			}
		}
	case abi.RetStat:
		m, ok := extra.(map[string]browser.Value)
		if !ok {
			res.Err = abi.EIO
			break
		}
		res.Stat = abi.StatFromMap(m)
	case abi.RetStr:
		res.Str, _ = extra.(string)
	case abi.RetDirents:
		arr, _ := extra.([]browser.Value)
		for _, v := range arr {
			if m, ok := v.(map[string]browser.Value); ok {
				res.Ents = append(res.Ents, abi.DirentFromMap(m))
			}
		}
	case abi.RetPair:
		res.Aux = [2]int64{vi(ret, 2), vi(ret, 3)}
	case abi.RetStatus:
		res.Aux[0] = vi(ret, 2)
	case abi.RetPollfds:
		arr, ok := extra.([]browser.Value)
		if !ok {
			break
		}
		for i := range a.Pollfds {
			a.Pollfds[i].Revents = 0
			if i < len(arr) {
				if v, ok := arr[i].(int64); ok {
					a.Pollfds[i].Revents = uint32(v)
				}
			}
		}
	}
	return res
}

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
