package fs

import (
	"bytes"
	"testing"

	"repro/internal/abi"
)

// Zero-copy write path unit tests: staging-slot leases, in-place
// adoption of staged bytes as dirty write-back state, the ownership
// interlock between the guest lease and the flusher's pins, and the
// lease-aware LRU eviction that makes room for staging under pressure.

// TestGrantGranuleLockstep is the runtime companion of the compile-time
// assert in pagepool.go: the fs page granule and the ABI grant granule
// must be the same constant, since write grants name slot-relative byte
// ranges across the kernel boundary in page units.
func TestGrantGranuleLockstep(t *testing.T) {
	if PageSize != abi.GrantPageSize {
		t.Fatalf("fs.PageSize = %d, abi.GrantPageSize = %d — granules drifted",
			PageSize, abi.GrantPageSize)
	}
}

// stageInto writes payload into a staged slot through the arena mapping,
// the way a guest would, and returns the reference naming it.
func stageInto(f *FileSystem, slot int, off int, payload []byte) SlotRef {
	copy(f.pc.pool.arena[slot*PageSize+off:], payload)
	return SlotRef{Slot: slot, Off: off, Len: len(payload)}
}

func TestAllocWriteSlotsLeaseAndAdopt(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	slots := f.AllocWriteSlots(2)
	if len(slots) != 2 {
		t.Fatalf("AllocWriteSlots(2) = %d slots", len(slots))
	}
	if f.WriteStagedSlots() != 2 {
		t.Fatalf("staged slots = %d, want 2", f.WriteStagedSlots())
	}
	for _, s := range slots {
		if f.pc.pool.pinCount(s) != 1 {
			t.Fatalf("slot %d pins = %d, want 1 (the guest lease)", s, f.pc.pool.pinCount(s))
		}
	}

	// Stage two sequential chunks and adopt them at offsets 0 and len.
	a := bytes.Repeat([]byte("A"), 300)
	b := bytes.Repeat([]byte("B"), 200)
	refA := stageInto(f, slots[0], 0, a)
	refB := stageInto(f, slots[0], 300, b)

	h := openWB(t, f, "/out.bin", abi.O_WRONLY|abi.O_CREAT)
	sw, ok := h.(SlotWriter)
	if !ok {
		t.Fatalf("write handle does not implement SlotWriter")
	}
	n, ok := sw.PwriteSlots(0, []SlotRef{refA, refB})
	if !ok || n != 500 {
		t.Fatalf("PwriteSlots = (%d, %v), want (500, true)", n, ok)
	}
	// Adoption pinned the slot once per extent-insert; the bytes are
	// buffered, not yet on the backend.
	if f.pc.pool.pinCount(slots[0]) < 2 {
		t.Fatalf("adopted slot pins = %d, want guest lease + adopter", f.pc.pool.pinCount(slots[0]))
	}
	if got := backendContent(t, mem, "/out.bin"); got != "" {
		t.Fatalf("bytes on backend before flush: %d", len(got))
	}

	// The guest returns its staging lease; adoption keeps the bytes
	// alive until the flush lands them.
	for _, s := range slots {
		if !f.UnleasePage(s) {
			t.Fatalf("unlease staged slot %d failed", s)
		}
	}
	if f.WriteStagedSlots() != 0 {
		t.Fatalf("staged slots remain after unlease")
	}
	closeH(t, h) // close flushes
	want := string(a) + string(b)
	if got := backendContent(t, mem, "/out.bin"); got != want {
		t.Fatalf("flushed content differs: got %d bytes, want %d", len(got), len(want))
	}
	if st := f.CacheStats(); st.PinnedPages != 0 {
		t.Fatalf("pins remain after flush: %+v", st)
	}
}

// TestStagedAppendStormSingleFlushWrite: an append storm submitted as
// slot references must coalesce into ONE vectored backend write — the
// extents alias the arena contiguously and the flusher groups
// file-adjacent runs.
func TestStagedAppendStormSingleFlushWrite(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	slots := f.AllocWriteSlots(1)
	if len(slots) != 1 {
		t.Fatalf("no staging slot")
	}
	h := openWB(t, f, "/storm.log", abi.O_WRONLY|abi.O_CREAT)
	sw := h.(SlotWriter)
	var want []byte
	off, used := int64(0), 0
	for i := 0; i < 64; i++ {
		line := []byte("append storm line\n")
		ref := stageInto(f, slots[0], used, line)
		if n, ok := sw.PwriteSlots(off, []SlotRef{ref}); !ok || n != len(line) {
			t.Fatalf("PwriteSlots #%d = (%d, %v)", i, n, ok)
		}
		want = append(want, line...)
		off += int64(len(line))
		used += len(line)
	}
	writesBefore := mem.WriteOps
	closeH(t, h)
	if got := mem.WriteOps - writesBefore; got != 1 {
		t.Fatalf("append storm flushed as %d backend writes, want 1", got)
	}
	if f.CacheStats().FlushWrites != 1 {
		t.Fatalf("FlushWrites = %d, want 1", f.CacheStats().FlushWrites)
	}
	if got := backendContent(t, mem, "/storm.log"); got != string(want) {
		t.Fatalf("storm content differs (%d vs %d bytes)", len(got), len(want))
	}
	f.UnleasePage(slots[0])
	if f.CacheStats().PinnedPages != 0 {
		t.Fatalf("pins remain after flush + unlease")
	}
}

// TestUnleaseOrderIndependence: the staged slot survives whichever side
// lets go last — guest lease first or adopter flush first — and the
// grant/return ledger balances either way.
func TestUnleaseOrderIndependence(t *testing.T) {
	for _, guestFirst := range []bool{true, false} {
		mem := NewMemFS(now)
		f := NewFileSystem(mem, func() int64 { return clock })
		slots := f.AllocWriteSlots(1)
		payload := bytes.Repeat([]byte("Z"), 128)
		ref := stageInto(f, slots[0], 0, payload)
		h := openWB(t, f, "/z", abi.O_WRONLY|abi.O_CREAT)
		if n, ok := h.(SlotWriter).PwriteSlots(0, []SlotRef{ref}); !ok || n != 128 {
			t.Fatalf("PwriteSlots = (%d, %v)", n, ok)
		}
		if guestFirst {
			f.UnleasePage(slots[0])
			closeH(t, h)
		} else {
			closeH(t, h)
			f.UnleasePage(slots[0])
		}
		if got := backendContent(t, mem, "/z"); got != string(payload) {
			t.Fatalf("guestFirst=%v: content differs", guestFirst)
		}
		st := f.CacheStats()
		if st.PinnedPages != 0 {
			t.Fatalf("guestFirst=%v: %d pins remain", guestFirst, st.PinnedPages)
		}
		if st.GrantedPages != st.ReturnedPages {
			t.Fatalf("guestFirst=%v: grants %d != returns %d",
				guestFirst, st.GrantedPages, st.ReturnedPages)
		}
		if !f.pc.pool.isFree(slots[0]) {
			t.Fatalf("guestFirst=%v: slot not reclaimed", guestFirst)
		}
	}
}

// TestAllocWriteSlotsEvictsLRUFirst: under arena pressure the staging
// allocator evicts the least-recently-used cached file — not everything,
// and never the recently touched one.
func TestAllocWriteSlotsEvictsLRUFirst(t *testing.T) {
	mem := NewMemFS(now)
	f := NewFileSystem(mem, func() int64 { return clock })
	// A tiny shared-pool quota so pressure is reachable: 4 slots.
	f.SetPagePool(NewPagePool(poolSlots), 4)

	f.pc.store("/cold", 0, bytes.Repeat([]byte{1}, PageSize), false)
	f.pc.store("/hot", 0, bytes.Repeat([]byte{2}, PageSize), false)
	f.pc.touch(f.pc.files["/hot"]) // /hot is the most recently used

	// Both files cached (2 slots); asking for 3 staging slots forces one
	// eviction — the LRU victim must be /cold.
	slots := f.AllocWriteSlots(3)
	if len(slots) != 3 {
		t.Fatalf("AllocWriteSlots(3) = %d under pressure", len(slots))
	}
	if _, cached := f.pc.files["/hot"]; !cached {
		t.Fatalf("LRU eviction took the hot file")
	}
	if _, cached := f.pc.files["/cold"]; cached {
		t.Fatalf("cold file survived — nothing was evicted?")
	}
	for _, s := range slots {
		f.UnleasePage(s)
	}
}
