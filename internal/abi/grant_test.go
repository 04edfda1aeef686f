package abi

import "testing"

// Wire-format round trips for the zero-copy grant records: PageGrant
// replies and the slot lists of lease-reclaim frames.

func TestGrantReplyPackRoundTrip(t *testing.T) {
	grants := []PageGrant{
		{Slot: 0, Len: GrantPageSize, Off: 0, Gen: 1},
		{Slot: 7, Len: 123, Off: 7 * GrantPageSize, Gen: 1 << 40},
		{Slot: 4095, Len: 1, Off: 99, Gen: 0},
	}
	buf := make([]byte, GrantAreaSize(len(grants)))
	PackGrantReply(buf, GrantMapped, grants)
	kind, got := UnpackGrantReply(buf)
	if kind != GrantMapped || len(got) != len(grants) {
		t.Fatalf("unpack = (%d, %d grants), want (%d, %d)", kind, len(got), GrantMapped, len(grants))
	}
	for i, g := range grants {
		if got[i] != g {
			t.Fatalf("grant %d: got %+v, want %+v", i, got[i], g)
		}
	}
}

func TestSlotListPackRoundTrip(t *testing.T) {
	slots := []uint32{0, 1, 4095, 17}
	buf := make([]byte, 4*len(slots))
	PackSlots(buf, slots)
	got := UnpackSlots(buf, len(slots))
	if len(got) != len(slots) {
		t.Fatalf("unpack = %d slots, want %d", len(got), len(slots))
	}
	for i := range slots {
		if got[i] != slots[i] {
			t.Fatalf("slot %d: got %d, want %d", i, got[i], slots[i])
		}
	}
}
