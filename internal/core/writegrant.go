package core

import (
	"repro/internal/abi"
	"repro/internal/fs"
)

// Kernel side of the zero-copy write path and the batched grant-read
// dispatch — the data-plane complement of synccall.go's readg handler.
//
// Write direction: wgalloc leases the calling process *empty* page-pool
// slots; the process stages payload bytes into them through its own
// arena mapping and submits (slot, off, len) references with writeg.
// The kernel never touches the payload: an fs-backed descriptor adopts
// the referenced bytes in place as dirty write-back extents, and a pipe
// buffers them as slot-backed segments the reader can drain by grant.
// Everything else — write-back off, scalar transport, Features.NoZeroCopy*,
// a refusing handle — falls back to one kernel copy out of the arena,
// byte-identical with the classic write path.
//
// Read direction: a drained doorbell carrying a run of readg frames
// against one descriptor becomes a single vectored cache pass whose
// grant list is split back across the frames — 64 sequential reads cost
// one ReadRef and one wake instead of 64.

// Caps on write-grant staging: slots leased per wgalloc call, and total
// staging slots a task may hold at once (a runaway staging allocator
// must exhaust its own quota, not the shared arena). The per-call cap
// equals the per-task cap so a bulk writer can restore a full staging
// window with the one wgalloc frame that rides its writeg doorbell.
const (
	maxWgallocSlots  = 64
	maxStagedPerTask = 64
)

// writeGrantOK reports whether the task negotiated the mappings the
// zero-copy write path rides on.
func (k *Kernel) writeGrantOK(t *Task) bool {
	return t.pool && t.ring != nil && !k.feat.NoZeroCopy && !k.feat.NoZeroCopyWrite
}

// doWgalloc services the write-grant allocation doorbell: lease up to n
// empty staging slots to the task and describe them in the grant-reply
// area at grantPtr. Fewer than n (possibly zero) slots is a clean
// answer — the guest degrades to the copy path for this write, not an
// error. ENOSYS tells the guest to stop asking for good.
func (k *Kernel) doWgalloc(t *Task, n int, grantPtr int64, done func(int64, abi.Errno)) {
	if !k.writeGrantOK(t) {
		done(-1, abi.ENOSYS)
		return
	}
	if n <= 0 || n > maxWgallocSlots {
		done(-1, abi.EINVAL)
		return
	}
	if err := t.heapRange(grantPtr, int64(abi.GrantAreaSize(n)), 1); err != abi.OK {
		done(-1, err)
		return
	}
	if room := maxStagedPerTask - len(t.wstaged); n > room {
		n = room
	}
	var slots []int
	if n > 0 {
		slots = k.FS.AllocWriteSlots(n)
	}
	grants := make([]abi.PageGrant, len(slots))
	for i, slot := range slots {
		if t.leases == nil {
			t.leases = map[int]int{}
		}
		if t.wstaged == nil {
			t.wstaged = map[int]bool{}
		}
		t.leases[slot]++
		t.wstaged[slot] = true
		k.LeaseGrants.Add(1)
		grants[i] = abi.PageGrant{
			Slot: uint32(slot), Len: fs.PageSize,
			Off: int64(slot) * fs.PageSize,
		}
	}
	buf := make([]byte, abi.GrantAreaSize(len(grants)))
	abi.PackGrantReply(buf, abi.GrantMapped, grants)
	t.heapWrite(grantPtr, buf)
	done(int64(len(grants)), abi.OK)
}

// doWriteg services a write-by-reference: refs name staged payload
// bytes in slots the task holds write-staging leases on. The referenced
// bytes are adopted without copying when the descriptor supports it;
// otherwise one copy out of the arena re-creates the classic write.
func (k *Kernel) doWriteg(t *Task, fd int, refs []fs.SlotRef, done func(int64, abi.Errno)) {
	if !k.writeGrantOK(t) {
		done(-1, abi.ENOSYS)
		return
	}
	d, err := t.lookFd(fd)
	if err != abi.OK {
		done(-1, err)
		return
	}
	var total int64
	for _, r := range refs {
		if !k.FS.ValidSlotRef(r) || !t.wstaged[r.Slot] {
			done(-1, abi.EINVAL)
			return
		}
		total += int64(r.Len)
	}
	if total == 0 {
		done(0, abi.OK)
		return
	}

	// The copy fallback: assemble the payload out of the arena (one
	// kernel copy, charged like a heap crossing) and run the classic
	// owned-buffer write — byte-identical with the adoption paths.
	fallback := func() {
		buf := make([]byte, 0, total)
		for _, r := range refs {
			buf = append(buf, k.FS.SlotBytes(r)...)
		}
		k.Sys.Sim.Charge(int64(float64(total) * k.CPU.SyncByteNs))
		k.WriteCopiedBytes.Add(total)
		writeMoved(d, buf, func(n int, werr abi.Errno) {
			done(int64(n), werr)
		})
	}

	if pe, ok := d.file.(*pipeEnd); ok {
		// Pipe adoption: each reference becomes a slot-backed segment
		// holding one adopter pin, with lease/release closures over the
		// pool so later splits and read grants stay accounted.
		segs := make([]pipeSeg, len(refs))
		for i, r := range refs {
			slot := r.Slot
			k.FS.PinPage(slot)
			segs[i] = pipeSeg{
				data: k.FS.SlotBytes(r),
				slot: slot,
				off:  int64(slot)*fs.PageSize + int64(r.Off),
				owner: &segOwner{
					pieces:  1,
					lease:   func() { k.FS.LeasePage(slot) },
					release: func() { k.FS.UnpinPage(slot) },
				},
			}
		}
		k.WriteGrantedBytes.Add(total)
		pe.WriteSlotSegs(segs, func(n int, werr abi.Errno) {
			done(int64(n), werr)
		})
		return
	}
	if f, ok := d.file.(*fsFile); ok {
		f.WriteSlots(d, refs, func(n int, werr abi.Errno) {
			if werr == abi.OK {
				k.WriteGrantedBytes.Add(int64(n))
			}
			done(int64(n), werr)
		}, fallback)
		return
	}
	fallback()
}

// dispatchReadgRun answers a run of same-fd readg frames with a single
// vectored cache pass: one ReadRef for the union of the requests, its
// grant list split back across the frames in order. Any precondition
// the single-frame path would have enforced falls back to per-frame
// dispatch, so the batched path can only ever change how many cache
// passes and wakes a run costs — never its bytes.
func (k *Kernel) dispatchReadgRun(t *Task, run []pendingCall, done func(uint32, int64, abi.Errno)) {
	fallback := func() {
		for _, c := range run {
			k.heapCall(t, c, done)
		}
	}
	if !(t.pool && t.ring != nil && !k.feat.NoZeroCopy) {
		fallback()
		return
	}
	d, err := t.lookFd(int(word(run[0].args, 0)))
	if err != abi.OK {
		fallback()
		return
	}
	// Pipes are excluded: a short grant on a pipe means "no more
	// buffered right now", and only per-frame dispatch can park the
	// remaining frames instead of answering them with a spurious EOF.
	if _, isFS := d.file.(*fsFile); !isFS {
		fallback()
		return
	}
	rf, ok := d.file.(refReader)
	if !ok {
		fallback()
		return
	}
	wants := make([]int, len(run))
	mgs := make([]int, len(run))
	var totalWant, maxGrants int
	for i, c := range run {
		bufLen, mg, want := int(word(c.args, 2)), int(word(c.args, 4)), int(word(c.args, 5))
		if want <= 0 {
			want = bufLen
		}
		if bufLen < 0 || want <= 0 || mg <= 0 || mg > 4096 || t.readgRanges(c.args) != abi.OK {
			fallback()
			return
		}
		wants[i] = want
		mgs[i] = mg
		totalWant += want
		maxGrants += mg
	}
	if maxGrants > 4096 {
		maxGrants = 4096
	}
	refs, ok := rf.ReadRef(d, totalWant, maxGrants)
	if !ok {
		fallback()
		return
	}
	k.BatchedGrantReads.Add(int64(len(run) - 1))

	// Split the union's grant list across the frames in order. A ref
	// straddling a frame boundary is carved in two, the tail piece
	// taking a fresh lease so grants and returns stay balanced. Frames
	// past the granted bytes answer as clean EOF (empty mapped reply);
	// a frame whose grant area fills early answers short, and the
	// stream stays intact because the next frame continues where the
	// short one stopped.
	ri := 0
	for i, c := range run {
		want := wants[i]
		var grants []abi.PageGrant
		var granted int64
		for want > 0 && ri < len(refs) && len(grants) < mgs[i] {
			r := refs[ri]
			take := r.Len
			if take > want {
				take = want
			}
			if t.leases == nil {
				t.leases = map[int]int{}
			}
			t.leases[r.Slot]++
			grants = append(grants, abi.PageGrant{
				Slot: uint32(r.Slot), Len: uint32(take),
				Off: r.Off, Gen: r.Gen,
			})
			granted += int64(take)
			want -= take
			if take == r.Len {
				ri++
			} else {
				// The remainder becomes a second live lease on the
				// same slot, granted to a later frame.
				refs[ri].Off += int64(take)
				refs[ri].Len -= take
				k.FS.LeasePage(r.Slot)
			}
		}
		k.LeaseGrants.Add(int64(len(grants)))
		k.GrantedBytes.Add(granted)
		buf := make([]byte, abi.GrantAreaSize(len(grants)))
		abi.PackGrantReply(buf, abi.GrantMapped, grants)
		t.heapWrite(word(c.args, 3), buf)
		done(c.seq, granted, abi.OK)
	}
	// Every frame's area full with refs left over (possible only with
	// degenerate caller-chosen grant areas): return the stranded leases
	// and rewind the descriptor so no byte is granted to nobody.
	for ; ri < len(refs); ri++ {
		r := refs[ri]
		k.FS.UnleasePage(r.Slot)
		d.off -= int64(r.Len)
	}
}
