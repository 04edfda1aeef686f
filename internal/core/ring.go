package core

import (
	"repro/internal/abi"
	"repro/internal/fs"
)

// Kernel side of the shared-memory ring-buffer syscall transport.
//
// A sync-transport process may upgrade from per-call postMessages to a
// pair of rings carved out of its registered heap: it pushes call frames
// into the request ring, rings a doorbell (one postMessage, regardless of
// how many frames are queued), and Atomics.waits on its wake cell. The
// kernel drains the whole request ring in a single dispatch, pushes reply
// frames into the reply ring as calls complete, and wakes the process once
// per batch — so a task draining a ready pipe completes several system
// calls per kernel dispatch instead of paying a message round trip each.
//
// Calls whose completion is deferred (a read against an empty pipe) reply
// out of order; frames carry sequence numbers so the process can match
// them. The scalar sync transport remains as the fallback for kernels or
// processes that don't negotiate the ring (Kernel.DisableRing).

// taskRing is the per-task transport state.
type taskRing struct {
	req abi.Ring // process -> kernel call frames
	rep abi.Ring // kernel -> process reply frames

	// Registered heap offsets of the two regions. The checkpoint path
	// needs them: ring pages are written through retained views that
	// bypass the heap's dirty-tracking barriers, so a final stop-copy
	// must always re-copy them.
	reqOff, reqLen, repOff, repLen int64

	draining bool        // inside drainRing's dispatch loop
	dirty    bool        // replies pushed since the last wake
	overflow []ringReply // replies that did not fit the reply ring
}

type ringReply struct {
	seq uint32
	ret int64
	err abi.Errno
}

// registerRing validates and installs a task's ring regions (the "ring"
// registration call). Both regions must lie inside the registered heap.
func (k *Kernel) registerRing(t *Task, reqOff, reqLen, repOff, repLen int64) abi.Errno {
	if k.DisableRing {
		return abi.ENOSYS
	}
	if t.heap == nil {
		return abi.EINVAL
	}
	ok := func(off, n int64) bool {
		return n >= abi.MinRingSize && t.heapRange(off, n, 1) == abi.OK
	}
	if !ok(reqOff, reqLen) || !ok(repOff, repLen) {
		return abi.EINVAL
	}
	b := t.heap.Bytes()
	t.ring = &taskRing{
		req:    abi.NewRing(b[reqOff : reqOff+reqLen]),
		rep:    abi.NewRing(b[repOff : repOff+repLen]),
		reqOff: reqOff, reqLen: reqLen, repOff: repOff, repLen: repLen,
	}
	return abi.OK
}

// drainRing services a doorbell: pop every queued call frame first, hand
// the whole batch to the fs-aware batch dispatcher, then land the
// completions that happened inside the batch with one batched-reply push
// and wake the process exactly once. Frame-by-frame dispatch (pop one,
// dispatch one) is gone: a doorbell carrying a stat storm reaches the
// file system as a single batch.
func (k *Kernel) drainRing(t *Task) {
	r := t.ring
	if r == nil || t.heap == nil || t.state == taskZombie {
		return
	}
	var calls []pendingCall
	for {
		seq, trap, args, ok := r.req.PopCall()
		if !ok {
			break
		}
		k.SyncSyscalls.Add(1)
		k.RingSyscalls.Add(1)
		k.Sys.Sim.Charge(k.CPU.SyscallNs)
		k.SyscallCount[abi.SyscallName(trap)]++
		calls = append(calls, pendingCall{seq: seq, trap: trap, args: args})
	}
	if len(calls) > 1 {
		k.RingBatchedCalls.Add(int64(len(calls) - 1))
	}
	r.draining = true
	var batched []abi.Reply
	// inBatch is per-invocation, NOT the shared r.draining flag: a call
	// from THIS drain that blocks may complete during a later drain of
	// the same ring (a signal handler's interleaved batch unblocking a
	// parked read); its reply must go through ringReply then, not into
	// this drain's already-flushed batch slice.
	inBatch := true
	k.dispatchBatch(t, calls, func(seq uint32, ret int64, err abi.Errno) {
		if inBatch {
			// Completed inside the batch: collect for one framing pass.
			batched = append(batched, abi.Reply{Seq: seq, Ret: ret, Errno: err})
			return
		}
		// Late completion (the call blocked): reply-and-wake immediately.
		k.ringReply(t, seq, ret, err)
	})
	inBatch = false
	r.draining = false
	if len(batched) > 0 && t.ring == r && t.heap != nil && t.state != taskZombie {
		// Batched-reply framing: every same-dispatch completion lands in
		// one PushReplies pass; what does not fit queues in arrival order
		// behind any existing overflow.
		n := 0
		if len(r.overflow) == 0 {
			n = r.rep.PushReplies(batched)
		}
		for _, rep := range batched[n:] {
			r.overflow = append(r.overflow, ringReply{rep.Seq, rep.Ret, rep.Errno})
		}
		r.dirty = true
	}
	k.flushRingWake(t)
}

// pendingCall is one popped, not-yet-dispatched ring call frame.
type pendingCall struct {
	seq  uint32
	trap int
	args []int64
}

// batchableCall reports whether a frame joins an fs metadata batch: the
// path-lookup calls a probe storm is made of — stat/lstat/access, plus
// readlink and *plain read-only* open (shell PATH probing interleaves
// those with its stats; creating or truncating opens have side effects
// that must dispatch individually, in order).
func batchableCall(c pendingCall) bool {
	switch c.trap {
	case abi.SYS_stat, abi.SYS_lstat, abi.SYS_access, abi.SYS_readlink:
		return true
	case abi.SYS_open:
		return word(c.args, 2)&(abi.O_ACCMODE|abi.O_CREAT|abi.O_TRUNC|abi.O_APPEND) == abi.O_RDONLY
	}
	return false
}

// dispatchBatch executes a batch of call frames. Runs of two or more
// consecutive fs metadata calls resolve through FS.MetaBatch — one pass
// against the dentry cache for the whole run — and everything else goes
// frame by frame through the heap codec (heapCall). The scalar transport
// enters here with batch size 1 (dispatchSync), and the async transport
// reaches the same FS.StatBatch/MetaBatch entry point through
// FS.Stat/Lstat/Access (batches of one), so all three transports execute
// identical file-system code.
func (k *Kernel) dispatchBatch(t *Task, calls []pendingCall, done func(seq uint32, ret int64, err abi.Errno)) {
	i := 0
	for i < len(calls) {
		if !k.DisableFSBatch && batchableCall(calls[i]) {
			j := i + 1
			for j < len(calls) && batchableCall(calls[j]) {
				j++
			}
			if j-i > 1 {
				k.dispatchMetaRun(t, calls[i:j], done)
				i = j
				continue
			}
		}
		if !k.DisableFSBatch && calls[i].trap == abi.SYS_readg {
			// A drained doorbell carrying a run of grant-reads against
			// one descriptor resolves with a single vectored cache pass
			// (dispatchReadgRun) — data-plane batching past metadata.
			fd := int64(-1)
			if len(calls[i].args) > 0 {
				fd = calls[i].args[0]
			}
			j := i + 1
			for j < len(calls) && calls[j].trap == abi.SYS_readg &&
				len(calls[j].args) > 0 && calls[j].args[0] == fd {
				j++
			}
			if j-i > 1 {
				k.dispatchReadgRun(t, calls[i:j], done)
				i = j
				continue
			}
		}
		k.heapCall(t, calls[i], done)
		i++
	}
}

// metaKinds maps the batchable traps to their fs batch request kinds.
var metaKinds = map[int]fs.MetaKind{
	abi.SYS_stat: fs.MetaStat, abi.SYS_lstat: fs.MetaLstat, abi.SYS_access: fs.MetaAccess,
	abi.SYS_readlink: fs.MetaReadlink, abi.SYS_open: fs.MetaOpen,
}

// dispatchMetaRun decodes a run of stat/lstat/access/readlink/open
// frames through the heap codec and resolves them with a single
// FS.MetaBatch call — one dentry cache pass for the whole run — then
// encodes each frame's result exactly as heapCall would have. A frame
// that fails to decode completes at once and leaves the batch.
func (k *Kernel) dispatchMetaRun(t *Task, run []pendingCall, done func(uint32, int64, abi.Errno)) {
	type metaCall struct {
		c   pendingCall
		out heapOut
	}
	calls := make([]metaCall, 0, len(run))
	reqs := make([]fs.MetaReq, 0, len(run))
	for _, c := range run {
		a, out, err := t.heapArgs(&abi.Syscalls[c.trap], c.args)
		if err != abi.OK {
			done(c.seq, -1, err)
			continue
		}
		req := fs.MetaReq{Kind: metaKinds[c.trap], Path: t.abs(a.Str[0])}
		if c.trap == abi.SYS_open {
			req.Flags, req.Mode = int(a.Int[0]), uint32(a.Int[1])
		}
		calls = append(calls, metaCall{c, out})
		reqs = append(reqs, req)
	}
	k.FSBatchedCalls.Add(int64(len(reqs)))
	k.FS.MetaBatch(reqs, func(res []fs.MetaRes) {
		for i, m := range calls {
			r := res[i]
			out := abi.Result{Err: r.Err, Stat: r.St}
			switch m.c.trap {
			case abi.SYS_readlink:
				out.Ret, out.Str = int64(len(r.Target)), r.Target
			case abi.SYS_open:
				out.Ret = -1
				if r.Err == abi.OK {
					// A nil handle is a directory: same split as doOpen.
					flags, path := reqs[i].Flags, reqs[i].Path
					var f File = &dirFile{fs: k.FS, path: path}
					if r.Handle != nil {
						f = newFSFile(r.Handle, flags)
					}
					out.Ret = int64(t.installFd(NewDesc(f, flags, path)))
				}
			}
			ret, err := t.heapResult(abi.Syscalls[m.c.trap].Ret, m.out, nil, out)
			done(m.c.seq, ret, err)
		}
	})
}

// ringReply queues one completion into the reply ring. During a drain
// batch the wake is deferred so the whole batch costs one notify; late
// completions (calls that blocked) wake immediately.
func (k *Kernel) ringReply(t *Task, seq uint32, ret int64, err abi.Errno) {
	r := t.ring
	if r == nil || t.heap == nil || t.state == taskZombie {
		return
	}
	if len(r.overflow) > 0 || !r.rep.PushReply(seq, ret, err) {
		r.overflow = append(r.overflow, ringReply{seq, ret, err})
	}
	r.dirty = true
	if !r.draining {
		k.flushRingWake(t)
	}
}

// flushRingWake drains any overflow replies into the ring and wakes the
// process if new replies are waiting.
func (k *Kernel) flushRingWake(t *Task) {
	r := t.ring
	if r == nil || t.heap == nil || t.state == taskZombie {
		return
	}
	for len(r.overflow) > 0 {
		o := r.overflow[0]
		if !r.rep.PushReply(o.seq, o.ret, o.err) {
			break
		}
		r.overflow = r.overflow[1:]
	}
	if !r.dirty {
		return
	}
	r.dirty = false
	k.RingNotifies.Add(1)
	t.heap.Store32(t.waitOff, 1)
	k.Sys.FutexNotify(t.heap, t.waitOff, 1)
}
