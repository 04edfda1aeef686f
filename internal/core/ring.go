package core

import (
	"repro/internal/abi"
	"repro/internal/browser"
)

// Kernel side of the shared-memory ring-buffer syscall transport, the
// only synchronous transport.
//
// A sync-transport process registers its heap with one personality
// call; the kernel installs the request and reply rings abi.HeapRings
// lays out at the top of it. The process pushes call frames into the
// request ring, rings a doorbell (one postMessage, regardless of how
// many frames are queued), and Atomics.waits on the wake cell. The
// kernel drains the whole request ring in a single dispatch, pushes
// reply frames into the reply ring as calls complete, and wakes the
// process once per batch — so a task draining a ready pipe completes
// several system calls per kernel dispatch instead of paying a message
// round trip each.
//
// Calls whose completion is deferred (a read against an empty pipe) reply
// out of order; frames carry sequence numbers so the process can match
// them.

// taskRing is the per-task transport state.
type taskRing struct {
	req abi.Ring // process -> kernel call frames
	rep abi.Ring // kernel -> process reply frames

	// off is the heap offset where the rings begin. The checkpoint path
	// needs it: ring pages are written through retained views that
	// bypass the heap's dirty-tracking barriers, so a final stop-copy
	// must always re-copy them.
	off int

	draining bool        // inside drainRing's dispatch loop
	dirty    bool        // replies pushed since the last wake
	overflow []ringReply // replies that did not fit the reply ring

	// The drain's working storage, reused by every doorbell: the popped
	// calls (calls[:next] dispatched so far), their argument words, and
	// the completions that landed inside the batch.
	calls   []pendingCall
	words   []abi.CallWords
	next    int
	batched []abi.Reply

	// done is every ring call's completion, bound once in setPersonality.
	done func(seq uint32, ret int64, err abi.Errno)
}

type ringReply struct {
	seq uint32
	ret int64
	err abi.Errno
}

// setPersonality registers a task's heap (the personality call) and
// installs the rings laid out in it. The heap must be a SharedArrayBuffer
// that holds the abi layout.
func (t *Task) setPersonality(v any) abi.Errno {
	sab, _ := v.(*browser.SAB)
	if sab == nil {
		return abi.EINVAL
	}
	req, rep, off, ok := abi.HeapRings(sab.Bytes())
	if !ok {
		return abi.EINVAL
	}
	r := &taskRing{req: req, rep: rep, off: off}
	r.done = func(seq uint32, ret int64, err abi.Errno) { t.k.ringDone(t, r, seq, ret, err) }
	t.heap, t.ring = sab, r
	// Both sides write the rings through views that bypass the heap's
	// write barriers: record them as written once, so the heap's next
	// owner gets them zeroed.
	sab.MarkDirty(off, sab.Len()-off)
	return abi.OK
}

// drainRing services a doorbell: pop every queued call frame first,
// dispatch them in order through the heap codec, then land the
// completions that happened inside the batch with one batched-reply push
// and wake the process exactly once.
func (k *Kernel) drainRing(t *Task) {
	r := t.ring
	if r == nil {
		return
	}
	if r.draining {
		panic("core: drainRing re-entered")
	}
	r.calls, r.next, r.batched = r.calls[:0], 0, r.batched[:0]
	for {
		n := len(r.calls)
		if n == len(r.words) {
			r.words = append(r.words, abi.CallWords{})
		}
		seq, trap, args, ok := r.req.PopCallInto(&r.words[n])
		if !ok {
			break
		}
		k.SyncSyscalls.Add(1)
		k.RingSyscalls.Add(1)
		k.Sys.Sim.Charge(k.CPU.SyscallNs)
		k.SyscallCount[abi.SyscallName(trap)]++
		r.calls = append(r.calls, pendingCall{seq: seq, trap: trap, args: args})
	}
	if len(r.calls) > 1 {
		k.RingBatchedCalls.Add(int64(len(r.calls) - 1))
	}
	r.draining = true
	// A call that ends the process or its image (exit, a fatal kill,
	// exec) releases the heap: the frames behind it are not run.
	for r.next < len(r.calls) && t.ring == r {
		r.next++
		k.heapCall(t, r.calls[r.next-1], r.done)
	}
	r.draining = false
	if len(r.batched) > 0 && t.ring == r {
		// Batched-reply framing: every same-dispatch completion lands in
		// one PushReplies pass; what does not fit queues in arrival order
		// behind any existing overflow.
		n := 0
		if len(r.overflow) == 0 {
			n = r.rep.PushReplies(r.batched)
		}
		for _, rep := range r.batched[n:] {
			r.overflow = append(r.overflow, ringReply{rep.Seq, rep.Ret, rep.Errno})
		}
		r.dirty = true
	}
	k.flushRingWake(t)
}

// ringDone lands one ring call's completion. A call of the drain in
// progress joins its batch. Any other, a call that blocked in an earlier
// drain (a signal handler's interleaved batch unblocking a parked read,
// say), replies through ringReply, even while a later drain runs.
func (k *Kernel) ringDone(t *Task, r *taskRing, seq uint32, ret int64, err abi.Errno) {
	if r.draining && r.dispatched(seq) {
		r.batched = append(r.batched, abi.Reply{Seq: seq, Ret: ret, Errno: err})
		return
	}
	k.ringReply(t, r, seq, ret, err)
}

// dispatched reports whether the drain in progress has dispatched a call
// numbered seq. The runtime numbers its calls uniquely, so this tells a
// call of this drain from one parked by an earlier drain; a guest that
// reuses a number still gets exactly one reply per frame, through one
// path or the other. The call completing is most often the one just
// dispatched, so the search runs backwards.
func (r *taskRing) dispatched(seq uint32) bool {
	for i := r.next - 1; i >= 0; i-- {
		if r.calls[i].seq == seq {
			return true
		}
	}
	return false
}

// pendingCall is one popped, not-yet-dispatched ring call frame.
type pendingCall struct {
	seq  uint32
	trap int
	args []int64
}

// ringReply queues one completion into the reply ring r it was decoded
// from. During a drain batch the wake is deferred so the whole batch
// costs one notify; late completions (calls that blocked) wake
// immediately. A ring the task no longer holds gets nothing.
func (k *Kernel) ringReply(t *Task, r *taskRing, seq uint32, ret int64, err abi.Errno) {
	if r != t.ring {
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
	if r == nil {
		return
	}
	n := 0
	for _, o := range r.overflow {
		if !r.rep.PushReply(o.seq, o.ret, o.err) {
			break
		}
		n++
	}
	if n > 0 {
		r.overflow = r.overflow[:copy(r.overflow, r.overflow[n:])]
	}
	if !r.dirty {
		return
	}
	r.dirty = false
	k.RingNotifies.Add(1)
	t.heap.Store32(abi.HeapWakeOff, 1)
	k.Sys.FutexNotify(t.heap, abi.HeapWakeOff, 1)
}
