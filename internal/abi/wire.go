package abi

import "encoding/binary"

// This file defines the wire encodings shared by the kernel and the
// language runtimes — the equivalent of the C struct layouts Browsix's
// Emscripten integration had to pad to match the kernel's expectations
// (§4.3). The asynchronous message path's frames are in table.go.

// StatSize is the packed size of a Stat record in a process heap.
const StatSize = 64

// PackStat writes st into b (at least StatSize bytes) in the layout the
// synchronous syscall transport uses.
func PackStat(b []byte, st Stat) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], st.Mode)
	le.PutUint32(b[4:], 0) // padding, as in the C struct
	le.PutUint64(b[8:], uint64(st.Size))
	le.PutUint64(b[16:], uint64(st.Mtime))
	le.PutUint64(b[24:], uint64(st.Atime))
	le.PutUint64(b[32:], uint64(st.Ctime))
	le.PutUint64(b[40:], uint64(st.Nlink))
	le.PutUint64(b[48:], st.Ino)
	le.PutUint64(b[56:], 0) // reserved
}

// UnpackStat reads a Stat packed by PackStat.
func UnpackStat(b []byte) Stat {
	le := binary.LittleEndian
	return Stat{
		Mode:  le.Uint32(b[0:]),
		Size:  int64(le.Uint64(b[8:])),
		Mtime: int64(le.Uint64(b[16:])),
		Atime: int64(le.Uint64(b[24:])),
		Ctime: int64(le.Uint64(b[32:])),
		Nlink: int(le.Uint64(b[40:])),
		Ino:   le.Uint64(b[48:]),
	}
}

// direntHeader is ino(8) + type(2) + namelen(2).
const direntHeader = 12

// PackDirents packs as many entries into buf as fit, returning the bytes
// written and the number of entries consumed. Records are 4-byte aligned,
// getdents-style.
func PackDirents(buf []byte, ents []Dirent) (n int, consumed int) {
	le := binary.LittleEndian
	for _, e := range ents {
		rec := direntHeader + len(e.Name)
		rec = (rec + 3) &^ 3
		if n+rec > len(buf) {
			break
		}
		le.PutUint64(buf[n:], e.Ino)
		le.PutUint16(buf[n+8:], uint16(e.Type))
		le.PutUint16(buf[n+10:], uint16(len(e.Name)))
		copy(buf[n+direntHeader:], e.Name)
		for i := n + direntHeader + len(e.Name); i < n+rec; i++ {
			buf[i] = 0
		}
		n += rec
		consumed++
	}
	return n, consumed
}

// UnpackDirents decodes records written by PackDirents.
func UnpackDirents(buf []byte) []Dirent {
	le := binary.LittleEndian
	var out []Dirent
	for n := 0; n+direntHeader <= len(buf); {
		ino := le.Uint64(buf[n:])
		typ := int(le.Uint16(buf[n+8:]))
		nameLen := int(le.Uint16(buf[n+10:]))
		if n+direntHeader+nameLen > len(buf) {
			break
		}
		out = append(out, Dirent{
			Ino:  ino,
			Type: typ,
			Name: string(buf[n+direntHeader : n+direntHeader+nameLen]),
		})
		rec := (direntHeader + nameLen + 3) &^ 3
		n += rec
	}
	return out
}
