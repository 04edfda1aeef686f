package abi

import "encoding/binary"

// Page-grant wire format: the zero-copy read path's currency.
//
// A process whose kernel has shared its page-cache arena (one
// SharedArrayBuffer, the "page pool") may issue readg instead of read.
// When every requested byte is resident in the page cache, the kernel
// answers with *grants* — (slot, arena offset, generation, length)
// records naming pinned pool pages — instead of copying the payload into
// the caller's buffer. The process satisfies its buffer straight from
// the mapped arena; the kernel's per-byte work is zero. Each grant is a
// lease: the named slot's bytes are frozen (never rewritten or recycled)
// until the process returns the lease with an unlease call, the
// owned-segment discipline of the pipe layer applied to cache pages.
//
// A readg against anything not fully resident (cold pages, dirty
// write-back state, a staled handle, a pipe) falls back to the classic
// copy path through the same kernel entry point, flagged by the reply
// header, so scalar and async transports — and every miss — stay
// byte-identical with the grant path.

// GrantPageSize is the page-cache granule the grant protocol leases in.
// The fs layer's PageSize aliases it: the granule is part of the ABI.
const GrantPageSize = 16 * 1024

// Grant-reply kinds (the u32 leading the grant reply area).
const (
	// GrantCopied: the payload was copied into the caller's buffer; no
	// leases were taken. The classic path.
	GrantCopied = 0
	// GrantMapped: the reply is a list of PageGrant records; the caller
	// reads the bytes from the pool arena and owes one unlease per
	// record.
	GrantMapped = 1
)

// GrantHdrSize is the reply header: u32 kind, u32 record count.
const GrantHdrSize = 8

// PageGrant is one leased page mapping in a readg reply.
type PageGrant struct {
	Slot uint32 // pool slot id (page identity; the unlease key)
	Len  uint32 // granted bytes at Off
	Off  int64  // byte offset of the first granted byte in the arena
	Gen  uint64 // page-cache generation at grant time
}

// PageGrantSize is the packed size of one PageGrant record.
const PageGrantSize = 24

// GrantAreaSize returns the reply-area bytes needed for n grant records.
func GrantAreaSize(n int) int { return GrantHdrSize + n*PageGrantSize }

// MaxGrantsFor bounds the grant records a read of n bytes can produce:
// one per touched page, plus slack for the unaligned first page.
func MaxGrantsFor(n int) int { return n/GrantPageSize + 2 }

// PackGrantReply writes a grant reply (header + records) into b, which
// must hold GrantAreaSize(len(grants)) bytes.
func PackGrantReply(b []byte, kind int, grants []PageGrant) int {
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(kind))
	le.PutUint32(b[4:], uint32(len(grants)))
	for i, g := range grants {
		o := GrantHdrSize + i*PageGrantSize
		le.PutUint32(b[o:], g.Slot)
		le.PutUint32(b[o+4:], g.Len)
		le.PutUint64(b[o+8:], uint64(g.Off))
		le.PutUint64(b[o+16:], g.Gen)
	}
	return GrantAreaSize(len(grants))
}

// UnpackGrantReply decodes a grant reply area.
func UnpackGrantReply(b []byte) (kind int, grants []PageGrant) {
	if len(b) < GrantHdrSize {
		return GrantCopied, nil
	}
	le := binary.LittleEndian
	kind = int(le.Uint32(b[0:]))
	n := int(le.Uint32(b[4:]))
	for i := 0; i < n && GrantHdrSize+(i+1)*PageGrantSize <= len(b); i++ {
		o := GrantHdrSize + i*PageGrantSize
		grants = append(grants, PageGrant{
			Slot: le.Uint32(b[o:]),
			Len:  le.Uint32(b[o+4:]),
			Off:  int64(le.Uint64(b[o+8:])),
			Gen:  le.Uint64(b[o+16:]),
		})
	}
	return kind, grants
}

// PackSlots packs pool slot ids for a lease-reclaim (unlease) frame.
func PackSlots(b []byte, slots []uint32) int {
	le := binary.LittleEndian
	for i, s := range slots {
		le.PutUint32(b[i*4:], s)
	}
	return 4 * len(slots)
}

// UnpackSlots decodes n slot ids from a lease-reclaim frame.
func UnpackSlots(b []byte, n int) []uint32 {
	le := binary.LittleEndian
	out := make([]uint32, 0, n)
	for i := 0; i < n && (i+1)*4 <= len(b); i++ {
		out = append(out, le.Uint32(b[i*4:]))
	}
	return out
}
