package rt

import (
	"repro/internal/abi"
)

// Process side of the shared-memory ring-buffer syscall transport (the
// fast path §3.2/§6 point toward), the only synchronous transport. After
// registering its personality, a synchronous runtime carves a request
// ring and a reply ring out of the top of its shared heap and registers
// them with the kernel. From then on a system call is: push a call
// frame, ring the doorbell (one postMessage regardless of how many
// frames are queued), Atomics.wait, pop the reply. Batched operations —
// writev fanning out into per-buffer write frames — share a doorbell and
// usually a single kernel dispatch.

// negotiateRing carves the ring regions and registers them with the
// kernel. Without its rings a synchronous runtime cannot make a system
// call, so a refusal fails the boot with exit status 127.
func (r *workerRT) negotiateRing() {
	reqOff, repOff := r.carveRings()
	if _, err := r.asyncCall("ring", reqOff, int64(ringRegionSize), repOff, int64(ringRegionSize)); err != abi.OK {
		r.Exit(127)
	}
}

// carveRings wraps the two ring regions at the top of the heap, resets
// their cursors, and ends the scratch region below them. It returns the
// regions' heap offsets.
func (r *workerRT) carveRings() (reqOff, repOff int64) {
	hlen := int64(r.heap.Len())
	reqOff, repOff = hlen-2*ringRegionSize, hlen-ringRegionSize
	b := r.heap.Bytes()
	r.reqRing = abi.NewRing(b[reqOff : reqOff+ringRegionSize])
	r.repRing = abi.NewRing(b[repOff : repOff+ringRegionSize])
	r.reqRing.Reset()
	r.repRing.Reset()
	r.scratchTop = reqOff
	return reqOff, repOff
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
func (r *workerRT) ringCalls(reqs []ringReq) ([]int64, []abi.Errno) {
	r.inflight++
	rets := make([]int64, len(reqs))
	errs := make([]abi.Errno, len(reqs))
	idx := map[uint32]int{}
	i, remaining := 0, 0
	for {
		// Push what the reply ring has guaranteed room for.
		maxNew := r.repRing.Free()/abi.ReplyFrameSize - r.ringOutstanding
		pushed := 0
		for ; i < len(reqs) && pushed < maxNew; i++ {
			if !r.reqRing.PushCall(r.ringSeq, reqs[i].trap, reqs[i].args) {
				break
			}
			idx[r.ringSeq] = i
			r.ringSeq++
			pushed++
		}
		r.ringOutstanding += pushed
		remaining += pushed
		if pushed > 0 {
			// One marshalling charge and one doorbell for the whole
			// sub-batch — the saving over per-call postMessages.
			r.sim.Charge(r.cost.SyscallCPUNs)
			r.heap.Store32(syncWaitOff, 0)
			r.w.PostToParent(abi.RingBell{})
		} else if remaining == 0 && i < len(reqs) {
			// Rings congested entirely by an interleaved batch: nudge
			// the kernel so draining frees space, then wait.
			r.heap.Store32(syncWaitOff, 0)
			r.w.PostToParent(abi.RingBell{})
		}
		remaining -= r.popReplies(idx, rets, errs)
		if i >= len(reqs) && remaining == 0 {
			break
		}
		r.sys.FutexWait(r.w.Ctx, r.heap, syncWaitOff, 0, -1)
		r.heap.Store32(syncWaitOff, 0)
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
		r.heap.Store32(syncWaitOff, 1)
		r.sys.FutexNotify(r.heap, syncWaitOff, -1)
	}
	return rets, errs
}

// popReplies drains the reply ring (and the stash) into this batch's
// slots, stashing replies that belong to an interleaved batch. Returns
// how many of this batch's frames completed.
func (r *workerRT) popReplies(idx map[uint32]int, rets []int64, errs []abi.Errno) int {
	got := 0
	for seq, rep := range r.ringStash {
		if j, known := idx[seq]; known {
			rets[j], errs[j] = rep.ret, rep.err
			delete(idx, seq)
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
		if j, known := idx[seq]; known {
			rets[j], errs[j] = ret, errno
			delete(idx, seq)
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
