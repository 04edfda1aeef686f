package core

import "repro/internal/abi"

// Kernel side of the shared-memory ring-buffer syscall transport, the
// only synchronous transport.
//
// A sync-transport process registers a pair of rings carved out of its
// heap: it pushes call frames into the request ring, rings a doorbell
// (one postMessage, regardless of how many frames are queued), and
// Atomics.waits on its wake cell. The kernel drains the whole request
// ring in a single dispatch, pushes reply frames into the reply ring as
// calls complete, and wakes the process once per batch — so a task
// draining a ready pipe completes several system calls per kernel
// dispatch instead of paying a message round trip each.
//
// Calls whose completion is deferred (a read against an empty pipe) reply
// out of order; frames carry sequence numbers so the process can match
// them.

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
// registration call). Both regions must lie inside the registered heap
// and hold at least abi.MinRingSize bytes.
func (k *Kernel) registerRing(t *Task, reqOff, reqLen, repOff, repLen int64) abi.Errno {
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

// drainRing services a doorbell: pop every queued call frame first,
// dispatch them in order through the heap codec, then land the
// completions that happened inside the batch with one batched-reply push
// and wake the process exactly once.
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
	done := func(seq uint32, ret int64, err abi.Errno) {
		if inBatch {
			// Completed inside the batch: collect for one framing pass.
			batched = append(batched, abi.Reply{Seq: seq, Ret: ret, Errno: err})
			return
		}
		// Late completion (the call blocked): reply-and-wake immediately.
		k.ringReply(t, seq, ret, err)
	}
	for _, c := range calls {
		k.heapCall(t, c, done)
	}
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
