package rt

import (
	"sort"

	"repro/internal/abi"
)

// Process side of the shared-memory ring-buffer syscall transport (the
// fast path §3.2/§6 point toward), the only synchronous transport. A
// synchronous runtime registers its heap with one personality call; the
// request and reply rings are the ones abi.HeapRings lays out at the top
// of that heap. From then on a system call is: push a call frame, ring
// the doorbell (one postMessage regardless of how many frames are
// queued), Atomics.wait, pop the reply. Batched operations — writev
// fanning out into per-buffer write frames — share a doorbell and
// usually a single kernel dispatch.

// register resets the heap's rings, ends the scratch region below them,
// and registers the heap with the kernel. Without its rings a
// synchronous runtime cannot make a system call, so a refusal fails the
// boot with exit status 127.
func (r *workerRT) register() {
	req, rep, off, ok := abi.HeapRings(r.heap.Bytes())
	if !ok {
		r.Exit(127)
	}
	req.Reset()
	rep.Reset()
	r.reqRing, r.repRing, r.scratchTop = req, rep, int64(off)
	if r.call(abi.SYS_personality, &abi.Args{Heap: r.heap}).Err != abi.OK {
		r.Exit(127)
	}
}

// ringReq is one call frame of a batch.
type ringReq struct {
	trap int
	args []int64
}

// ringCalls pushes a batch of call frames, rings the doorbell once per
// sub-batch, and collects every reply (replies may arrive out of order —
// frames carry sequence numbers). Batches are bounded by the reply
// ring's free capacity net of frames already outstanding, so every
// completion is guaranteed a reply slot — nothing can strand in the
// kernel's overflow list. When an interleaved batch (a signal handler
// issuing calls while the main flow is parked) congests the rings, this
// batch waits for the kernel to drain rather than failing.
//
// The outermost batch's results live in storage the runtime reuses:
// they hold until the next ringCalls, so a caller reads them before it
// makes another call. An interleaved batch gets storage of its own.
func (r *workerRT) ringCalls(reqs []ringReq) ([]int64, []abi.Errno) {
	b := &r.ringBatch
	if r.inflight > 0 {
		b = &ringBatch{}
	}
	b.reset(len(reqs))
	r.inflight++
	i, remaining := 0, 0
	for {
		// Push what the reply ring has guaranteed room for.
		maxNew := r.repRing.Free()/abi.ReplyFrameSize - r.ringOutstanding
		pushed := 0
		for ; i < len(reqs) && pushed < maxNew; i++ {
			if !r.reqRing.PushCall(r.ringSeq, reqs[i].trap, reqs[i].args) {
				break
			}
			b.seqs = append(b.seqs, r.ringSeq)
			r.ringSeq++
			pushed++
		}
		r.ringOutstanding += pushed
		remaining += pushed
		if pushed > 0 {
			// One marshalling charge and one doorbell for the whole
			// sub-batch — the saving over per-call postMessages.
			r.sim.Charge(r.cost.SyscallCPUNs)
			r.heap.Store32(abi.HeapWakeOff, 0)
			r.w.PostToParent(abi.RingBell{})
		} else if remaining == 0 && i < len(reqs) {
			// Rings congested entirely by an interleaved batch: nudge
			// the kernel so draining frees space, then wait.
			r.heap.Store32(abi.HeapWakeOff, 0)
			r.w.PostToParent(abi.RingBell{})
		}
		remaining -= r.popReplies(b)
		if i >= len(reqs) && remaining == 0 {
			break
		}
		r.sys.FutexWait(r.w.Ctx, r.heap, abi.HeapWakeOff, 0, -1)
		r.heap.Store32(abi.HeapWakeOff, 0)
	}
	r.inflight--
	if r.inflight == 0 {
		// Only the outermost call may recycle the scratch region: an
		// interleaved batch resetting it would alias a parked call's
		// staged buffers.
		r.scratch = scratchBase
	} else if len(r.ringStash) > 0 {
		// We popped replies belonging to a parked batch; make sure its
		// coroutine wakes to find them in the stash.
		r.heap.Store32(abi.HeapWakeOff, 1)
		r.sys.FutexNotify(r.heap, abi.HeapWakeOff, -1)
	}
	return b.rets, b.errs
}

// ringBatch is the storage of one ringCalls: the sequence number of
// each frame pushed so far, in push order, and the results by request
// index.
type ringBatch struct {
	seqs []uint32
	rets []int64
	errs []abi.Errno
}

// reset readies b for a batch of n requests.
func (b *ringBatch) reset(n int) {
	b.seqs = b.seqs[:0]
	if cap(b.rets) < n {
		b.rets, b.errs = make([]int64, n), make([]abi.Errno, n)
	}
	b.rets, b.errs = b.rets[:n], b.errs[:n]
}

// slot returns the request index the frame numbered seq was pushed for,
// or -1 when it is another batch's. A batch's numbers are taken in
// increasing order, with gaps where an interleaved batch pushed, so
// their distances from the first are sorted even across wraparound.
func (b *ringBatch) slot(seq uint32) int {
	if len(b.seqs) == 0 {
		return -1
	}
	first := b.seqs[0]
	d := seq - first
	j := sort.Search(len(b.seqs), func(k int) bool { return b.seqs[k]-first >= d })
	if j < len(b.seqs) && b.seqs[j] == seq {
		return j
	}
	return -1
}

// popReplies drains the reply ring (and the stash) into this batch's
// slots, stashing replies that belong to an interleaved batch. Returns
// how many of this batch's frames completed.
func (r *workerRT) popReplies(b *ringBatch) int {
	got := 0
	for seq, rep := range r.ringStash {
		if j := b.slot(seq); j >= 0 {
			b.rets[j], b.errs[j] = rep.ret, rep.err
			delete(r.ringStash, seq)
			got++
		}
	}
	for {
		seq, ret, errno, ok := r.repRing.PopReply()
		if !ok {
			return got
		}
		r.ringOutstanding--
		if j := b.slot(seq); j >= 0 {
			b.rets[j], b.errs[j] = ret, errno
			got++
		} else {
			if r.ringStash == nil {
				r.ringStash = map[uint32]ringRep{}
			}
			r.ringStash[seq] = ringRep{ret: ret, err: errno}
		}
	}
}

// ringRep is a reply held for a batch other than the one that popped it.
type ringRep struct {
	ret int64
	err abi.Errno
}

// ringWritev fans a writev out into per-buffer write frames sharing one
// doorbell — several completed system calls per kernel dispatch (reply
// batching). A buffer too large for the scratch region goes through
// Write, which sends it in scratch-sized pieces.
func (r *workerRT) ringWritev(fd int, bufs [][]byte) (int64, abi.Errno) {
	var total int64
	i := 0
	for i < len(bufs) {
		var reqs []ringReq
		for ; i < len(bufs); i++ {
			b := bufs[i]
			if !r.scratchFits(int64(len(b)) + 16) {
				break
			}
			ptr, n := r.putBytes(b)
			reqs = append(reqs, ringReq{abi.SYS_write, []int64{int64(fd), ptr, n}})
		}
		if len(reqs) == 0 {
			n, err := r.Write(fd, bufs[i])
			total += int64(n)
			if err != abi.OK {
				if total > 0 {
					return total, abi.OK
				}
				return -1, err
			}
			i++
			continue
		}
		rets, errs := r.ringCalls(reqs)
		for j := range rets {
			if errs[j] != abi.OK {
				if total > 0 {
					return total, abi.OK
				}
				return -1, errs[j]
			}
			total += rets[j]
		}
	}
	return total, abi.OK
}
