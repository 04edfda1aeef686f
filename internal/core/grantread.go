package core

import "repro/internal/abi"

// Batched grant reads: a drained doorbell carrying a run of readg
// frames against one descriptor becomes a single vectored cache pass
// whose grant list is split back across the frames — 64 sequential
// reads cost one ReadRef and one wake instead of 64.

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
