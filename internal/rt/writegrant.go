package rt

import (
	"repro/internal/abi"
)

// Process side of the zero-copy write path and the batched grant read.
//
// Write direction: the runtime leases *empty* page-pool slots from the
// kernel (wgalloc), stages payload bytes into them through its own
// mapping of the arena, and submits (slot, off, len) references with
// writeg — the kernel adopts the referenced bytes in place and never
// copies the payload. Staging slots are held per descriptor; a filled
// slot's reclaim frame rides the same doorbell as the writeg frame that
// last referenced it (after it — the kernel retires the staging lease
// in frame order).
//
// Read direction: ReadBatch pushes a run of same-fd readg frames into
// one doorbell; the kernel answers the run with a single vectored cache
// pass and one wake (core.dispatchReadgRun).

// wgPageSize is the staging granularity — one pool slot.
const wgPageSize = abi.GrantPageSize

// maxStageSlots mirrors the kernel's per-task staging cap: a 1 MiB
// window, wide enough that one writeg covers writes the scratch region
// could not carry in one classic call.
const maxStageSlots = 64

// wgallocBatch is the minimum slots requested per allocation doorbell:
// an allocation is a full kernel round trip, so small sequential writes
// lease a few slots ahead and fill them across later writes instead of
// knocking every 16 KiB. Surplus slots return on close/dup2/exec like
// any held stage.
const wgallocBatch = 4

// stagedSlot is one leased, partially filled staging slot.
type stagedSlot struct {
	g    abi.PageGrant
	used int
}

// writeStage is the staging state held for one descriptor.
type writeStage struct {
	slots []stagedSlot
}

// wgalloc leases up to n empty staging slots from the kernel. An empty
// result means "stay on the copy path for this write"; ENOSYS disables
// the write-grant path for good.
func (r *workerRT) wgalloc(n int) []abi.PageGrant {
	if n > maxStageSlots {
		n = maxStageSlots
	}
	areaLen := int64(abi.GrantAreaSize(n))
	if !r.scratchFits(areaLen + r.unleaseStageBytes() + 64) {
		return nil
	}
	reqs := r.stageUnleases(nil)
	grantPtr := r.alloc(areaLen)
	reqs = append(reqs, ringReq{trap: abi.SYS_wgalloc, args: []int64{int64(n), grantPtr}})
	rets, errs := r.ringCalls(reqs)
	last := len(reqs) - 1
	if errs[last] == abi.ENOSYS {
		r.wgOK = false
		return nil
	}
	if errs[last] != abi.OK || rets[last] <= 0 {
		return nil
	}
	kind, grants := abi.UnpackGrantReply(r.heap.Bytes()[grantPtr : grantPtr+areaLen])
	if kind != abi.GrantMapped {
		return nil
	}
	return grants
}

// dropFdWriteStage queues every staging slot held for fd for return
// (close and dup2-over). The slots' reclaim frames ride the caller's
// doorbell via the shared pendingUnlease list.
func (r *workerRT) dropFdWriteStage(fd int) {
	ws := r.wstage[fd]
	if ws == nil {
		return
	}
	for _, s := range ws.slots {
		r.pendingUnlease = append(r.pendingUnlease, s.g.Slot)
	}
	delete(r.wstage, fd)
}

// writeStaged writes b through the zero-copy staging path. ok=false
// means nothing was submitted and the caller should run the classic
// copy path instead; ok=true is a complete answer (including a plain
// finish for a tail the staging allocator could not cover).
func (r *workerRT) writeStaged(fd int, b []byte) (int, abi.Errno, bool) {
	total := 0
	for total < len(b) {
		n, err, ok := r.writeStagedOnce(fd, b[total:])
		if !ok {
			break
		}
		if err != abi.OK {
			// POSIX short-write semantics: bytes already written make the
			// call a success; EAGAIN only reports a fruitless attempt.
			if err == abi.EAGAIN && total+n > 0 {
				return total + n, abi.OK, true
			}
			return total + n, err, true
		}
		if n <= 0 {
			return total, abi.EIO, true
		}
		total += n
	}
	if total < len(b) {
		if total == 0 {
			return 0, abi.OK, false
		}
		// Staging refused mid-stream (slots exhausted, scratch held by
		// an interleaved batch): finish the tail on the copy path so the
		// caller still sees one complete write.
		m, err := r.writePlain(fd, b[total:])
		return total + m, err, true
	}
	return total, abi.OK, true
}

// writeStagedOnce stages one pass of b — up to the free space in fd's
// held slots plus one wgalloc's worth of fresh ones — and submits the
// references with a single writeg frame. Slots filled to the brim are
// retired on the same doorbell, AFTER the writeg frame that references
// them (the kernel drops the staging lease in frame order). When the
// window left after staging would not cover another write this size,
// a replenishing wgalloc frame rides the SAME doorbell, after the
// unleases — the kernel hands the just-retired slots straight back —
// so steady-state bulk writes cost one round trip, exactly like the
// copy path, with no payload bytes crossing the kernel.
func (r *workerRT) writeStagedOnce(fd int, b []byte) (int, abi.Errno, bool) {
	// The whole submission must fit scratch before any byte is staged:
	// the packed reference list, any piggybacked lease reclaim, and the
	// grant-reply area of a piggybacked replenishment.
	if !r.scratchFits(int64(abi.WriteRefSize*(maxStageSlots+1)) +
		int64(abi.GrantAreaSize(maxStageSlots)) + r.unleaseStageBytes() + 64) {
		return 0, abi.OK, false
	}
	ws := r.wstage[fd]
	if ws == nil {
		ws = &writeStage{}
		r.wstage[fd] = ws
	}
	free := 0
	for _, s := range ws.slots {
		free += wgPageSize - s.used
	}
	if free < len(b) {
		need := (len(b) - free + wgPageSize - 1) / wgPageSize
		if need < wgallocBatch {
			need = wgallocBatch
		}
		if room := maxStageSlots - len(ws.slots); need > room {
			need = room
		}
		if need > 0 {
			for _, g := range r.wgalloc(need) {
				ws.slots = append(ws.slots, stagedSlot{g: g})
				free += wgPageSize
			}
		}
	}
	if free == 0 {
		return 0, abi.OK, false
	}
	// Stage through the arena mapping and build the reference list. The
	// guest-side copy into its own mapped pages is the write's only
	// per-byte move — the kernel sees 12-byte references.
	pool := r.pool.Bytes()
	var refs []abi.WriteRef
	staged := 0
	for i := range ws.slots {
		if staged == len(b) {
			break
		}
		s := &ws.slots[i]
		space := wgPageSize - s.used
		if space == 0 {
			continue
		}
		take := len(b) - staged
		if take > space {
			take = space
		}
		copy(pool[s.g.Off+int64(s.used):], b[staged:staged+take])
		refs = append(refs, abi.WriteRef{Slot: s.g.Slot, Off: uint32(s.used), Len: uint32(take)})
		s.used += take
		staged += take
	}
	packed := make([]byte, abi.WriteRefSize*len(refs))
	abi.PackWriteRefs(packed, refs)
	ptr, _ := r.putBytes(packed)
	reqs := []ringReq{{trap: abi.SYS_writeg, args: []int64{int64(fd), ptr, int64(len(refs))}}}
	// Retire brimful slots behind the writeg frame that references them.
	kept := ws.slots[:0]
	for _, s := range ws.slots {
		if s.used == wgPageSize {
			r.pendingUnlease = append(r.pendingUnlease, s.g.Slot)
		} else {
			kept = append(kept, s)
		}
	}
	ws.slots = kept
	reqs = r.stageUnleases(reqs)
	// Replenish on the same doorbell: if the window left over would not
	// cover another write this size, ask for the difference behind the
	// unlease frames (the kernel recycles the retired slots in frame
	// order), so the next write stages without its own allocation trip.
	freeAfter := 0
	for _, s := range ws.slots {
		freeAfter += wgPageSize - s.used
	}
	needNext := 0
	var replPtr, replArea int64
	if freeAfter < len(b) {
		needNext = (len(b) - freeAfter + wgPageSize - 1) / wgPageSize
		if needNext < wgallocBatch {
			needNext = wgallocBatch
		}
		if room := maxStageSlots - len(ws.slots); needNext > room {
			needNext = room
		}
	}
	if needNext > 0 {
		replArea = int64(abi.GrantAreaSize(needNext))
		replPtr = r.alloc(replArea)
		reqs = append(reqs, ringReq{trap: abi.SYS_wgalloc,
			args: []int64{int64(needNext), replPtr}})
	}
	rets, errs := r.ringCalls(reqs)
	if needNext > 0 {
		last := len(reqs) - 1
		if errs[last] == abi.OK && rets[last] > 0 {
			kind, grants := abi.UnpackGrantReply(r.heap.Bytes()[replPtr : replPtr+replArea])
			if kind == abi.GrantMapped {
				for _, g := range grants {
					ws.slots = append(ws.slots, stagedSlot{g: g})
				}
			}
		}
	}
	if errs[0] == abi.ENOSYS {
		// The kernel stopped honouring write grants; the staged bytes
		// are abandoned (the slots go back on close) and the caller
		// restarts on the copy path.
		r.wgOK = false
		return 0, abi.OK, false
	}
	if errs[0] != abi.OK {
		return 0, errs[0], true
	}
	return int(rets[0]), abi.OK, true
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
