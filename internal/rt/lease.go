package rt

import (
	"repro/internal/abi"
	"repro/internal/browser"
)

// Process side of the zero-copy read path. After negotiating the ring,
// a synchronous runtime asks the kernel to share its page-cache arena
// ("pagepool"); from then on reads go out as readg frames. A warm read
// comes back as page grants — (slot, arena offset, length, generation)
// leases — and the runtime satisfies the guest buffer straight from its
// mapping of the arena: the kernel moved no payload bytes. Cold reads,
// pipes, and refused negotiations fall back to the copied reply in the
// same call, byte-identical.
//
// Leases are held per descriptor and returned when the descriptor seeks
// away or closes (or when the per-fd budget evicts the oldest), as
// lease-reclaim (unlease) frames that ride the next doorbell — a
// sequential reader's grants are returned inside the batches it was
// already sending.
//
// Writes have no mapped counterpart: every write goes out through the
// copy path (one kernel copy out of the heap), as in the paper's sync
// transport. ReadBatch pushes a run of same-fd readg frames into one
// doorbell; the kernel answers the run with a single vectored cache
// pass and one wake (core.dispatchReadgRun).

// maxHeldLeases bounds the grants retained per descriptor; the oldest
// is returned first when exceeded.
const maxHeldLeases = 16

// negotiatePagePool maps the kernel's page-cache arena. Refusal (an old
// kernel, or Features.NoZeroCopy) leaves the runtime on the copy
// path.
func (r *workerRT) negotiatePagePool() {
	if !r.ringOK {
		return
	}
	ret := r.asyncCall("pagepool")
	if verr(ret) != abi.OK || len(ret) < 3 {
		return
	}
	sab, ok := ret[2].(*browser.SAB)
	if !ok || sab == nil {
		return
	}
	r.pool = sab
	r.poolOK = true
}

// holdLease retains one granted lease for fd, evicting the oldest
// grant beyond the per-fd budget. The same slot may appear in two held
// entries: under content dedup, two pages with identical bytes share
// one arena slot, and each grant carries its own kernel pin. Holding
// (and later returning) every grant individually keeps the lease
// ledger balanced and — because the unlease traffic then matches a
// dedup-off run frame for frame — keeps the virtual clock bit-equal
// with the sharing tier on or off.
func (r *workerRT) holdLease(fd int, g abi.PageGrant) {
	held := append(r.heldLeases[fd], g)
	if len(held) > maxHeldLeases {
		r.pendingUnlease = append(r.pendingUnlease, held[0].Slot)
		held = held[1:]
	}
	r.heldLeases[fd] = held
}

// dropFdLeases queues every lease held for fd for return (seek-away and
// close).
func (r *workerRT) dropFdLeases(fd int) {
	held := r.heldLeases[fd]
	if len(held) == 0 {
		return
	}
	for _, g := range held {
		r.pendingUnlease = append(r.pendingUnlease, g.Slot)
	}
	delete(r.heldLeases, fd)
}

// stageUnleases appends a lease-reclaim frame carrying every pending
// return to reqs (sharing the caller's doorbell). Requires scratch room;
// callers check scratchFits with unleaseStageBytes first.
func (r *workerRT) stageUnleases(reqs []ringReq) []ringReq {
	if len(r.pendingUnlease) == 0 {
		return reqs
	}
	packed := make([]byte, 4*len(r.pendingUnlease))
	abi.PackSlots(packed, r.pendingUnlease)
	ptr, _ := r.putBytes(packed)
	reqs = append(reqs, ringReq{trap: abi.SYS_unlease, args: []int64{ptr, int64(len(r.pendingUnlease))}})
	r.pendingUnlease = r.pendingUnlease[:0]
	return reqs
}

// unleaseStageBytes is the scratch room a staged lease-reclaim frame
// needs.
func (r *workerRT) unleaseStageBytes() int64 {
	if len(r.pendingUnlease) == 0 {
		return 0
	}
	return int64(4*len(r.pendingUnlease)) + 16
}

// syncCallLeased issues one sync call, piggybacking any pending lease
// returns on the same doorbell when the ring is up.
func (r *workerRT) syncCallLeased(trap int, args ...int64) (int64, abi.Errno) {
	if r.ringOK && len(r.pendingUnlease) > 0 && r.scratchFits(r.unleaseStageBytes()+256) {
		reqs := r.stageUnleases(nil)
		reqs = append(reqs, ringReq{trap: trap, args: args})
		rets, errs := r.ringCalls(reqs)
		last := len(reqs) - 1
		return rets[last], errs[last]
	}
	return r.syncCall(trap, args...)
}

// maxGrantsPerRead bounds one readg's grant records (16 MiB of pages) —
// and with it the scratch the grant area costs.
const maxGrantsPerRead = 1024

// readLeased performs one read of up to want bytes through the readg
// entry point. Grant replies are satisfied from the pool mapping (zero
// kernel copies, and not bounded by the scratch staging region — a warm
// multi-megabyte read is ONE kernel crossing); copied replies are
// drained from the staging buffer, capped at bufLen, exactly like a
// plain read — a short result POSIX permits.
func (r *workerRT) readLeased(fd, want, bufLen int) ([]byte, abi.Errno) {
	maxGrants := abi.MaxGrantsFor(want)
	if maxGrants > maxGrantsPerRead {
		maxGrants = maxGrantsPerRead
	}
	areaLen := int64(abi.GrantAreaSize(maxGrants))
	// The fallback staging buffer shares scratch with the grant area and
	// any lease-reclaim frame: shrink it to fit (a shorter cold read is
	// POSIX-legal; the grant path is unaffected — grants carry no
	// payload through scratch).
	scalarBuf := bufLen
	if limit := r.maxScratchPayload() - areaLen - r.unleaseStageBytes() - 64; int64(bufLen) > limit {
		if limit < 0 {
			limit = 0
		}
		bufLen = int(limit)
	}
	if bufLen <= 0 || !r.scratchFits(int64(bufLen)+areaLen+r.unleaseStageBytes()+64) {
		// No room for the grant area (an interleaved batch holds the
		// scratch region): degrade to the plain scalar read, shrunk to
		// the scratch that actually remains — a short read, never an
		// allocator overflow.
		base := r.scratch
		if base < scratchBase {
			base = scratchBase
		}
		if avail := r.scratchTop - base - 16; avail > 0 && int64(scalarBuf) > avail {
			scalarBuf = int(avail)
		}
		res := r.call(abi.SYS_read, &abi.Args{Int: ints(fd), Cap: int64(scalarBuf)})
		return res.Data, res.Err
	}
	reqs := r.stageUnleases(nil)
	bufPtr := r.alloc(int64(bufLen))
	grantPtr := r.alloc(areaLen)
	reqs = append(reqs, ringReq{trap: abi.SYS_readg,
		args: []int64{int64(fd), bufPtr, int64(bufLen), grantPtr, int64(maxGrants), int64(want)}})
	rets, errs := r.ringCalls(reqs)
	last := len(reqs) - 1
	if errs[last] != abi.OK {
		return nil, errs[last]
	}
	total := rets[last]
	if total <= 0 {
		return nil, abi.OK
	}
	return r.readgPayload(make([]byte, 0, total), bufPtr, grantPtr, areaLen, total, func(g abi.PageGrant) {
		r.holdLease(fd, g)
	}), abi.OK
}

// readgPayload appends a completed readg frame's n bytes to dst: a
// copied reply is drained from the staging buffer; a mapped one is read
// through the arena mapping — the bytes never crossed the kernel
// boundary — and each grant is handed to keep.
func (r *workerRT) readgPayload(dst []byte, bufPtr, grantPtr, areaLen, n int64, keep func(abi.PageGrant)) []byte {
	hb := r.heap.Bytes()
	kind, grants := abi.UnpackGrantReply(hb[grantPtr : grantPtr+areaLen])
	if kind != abi.GrantMapped {
		return append(dst, hb[bufPtr:bufPtr+n]...)
	}
	pool := r.pool.Bytes()
	for _, g := range grants {
		dst = append(dst, pool[g.Off:g.Off+int64(g.Len)]...)
		keep(g)
	}
	return dst
}

// ReadBatch reads up to frames*chunk bytes from fd by pushing `frames`
// grant-read frames into as few doorbells as the scratch region allows
// (usually one) — the kernel answers each same-fd run with one vectored
// cache pass and one wake. Stops early at end of file. Falls back to
// sequential reads off the fast path.
func (r *workerRT) ReadBatch(fd, chunk, frames int) ([]byte, abi.Errno) {
	if chunk <= 0 || frames <= 0 {
		return nil, abi.EINVAL
	}
	if !r.poolOK {
		var out []byte
		for i := 0; i < frames; i++ {
			b, err := r.Read(fd, chunk)
			if err != abi.OK {
				return out, err
			}
			if len(b) == 0 {
				break
			}
			out = append(out, b...)
		}
		return out, abi.OK
	}
	mg := abi.MaxGrantsFor(chunk)
	if mg > maxGrantsPerRead {
		mg = maxGrantsPerRead
	}
	areaLen := int64(abi.GrantAreaSize(mg))
	perFrame := int64(chunk) + areaLen + 32
	var out []byte
	left := frames
	for left > 0 {
		if !r.scratchFits(perFrame + r.unleaseStageBytes() + 64) {
			// Scratch held by an interleaved batch: finish sequentially.
			b, err := r.Read(fd, chunk)
			if err != abi.OK {
				return out, err
			}
			if len(b) == 0 {
				return out, abi.OK
			}
			out = append(out, b...)
			left--
			continue
		}
		// Pack as many frames as the scratch region can stage buffers
		// and grant areas for; they form one same-fd readg run.
		reqs := r.stageUnleases(nil)
		base := len(reqs)
		type frameArea struct{ bufPtr, grantPtr int64 }
		var areas []frameArea
		for len(areas) < left && r.scratchFits(perFrame+64) {
			bufPtr := r.alloc(int64(chunk))
			grantPtr := r.alloc(areaLen)
			reqs = append(reqs, ringReq{trap: abi.SYS_readg,
				args: []int64{int64(fd), bufPtr, int64(chunk), grantPtr, int64(mg), int64(chunk)}})
			areas = append(areas, frameArea{bufPtr, grantPtr})
		}
		rets, errs := r.ringCalls(reqs)
		left -= len(areas)
		for i, fa := range areas {
			ret, err := rets[base+i], errs[base+i]
			if err != abi.OK {
				return out, err
			}
			if ret <= 0 {
				return out, abi.OK
			}
			// A batch reader has no sequential re-read window to hold
			// mapped grants open for: queue them straight for return.
			out = r.readgPayload(out, fa.bufPtr, fa.grantPtr, areaLen, ret, func(g abi.PageGrant) {
				r.pendingUnlease = append(r.pendingUnlease, g.Slot)
			})
		}
	}
	return out, abi.OK
}
