package abi

import "encoding/binary"

// This file defines the poll readiness ABI: event bits and the packed
// Pollfd record a process stages in its shared heap for SYS_poll. The
// layout mirrors struct pollfd, widened so every field is a fixed-size
// little-endian integer the runtimes can marshal with plain stores.

// Poll event bits, matching Linux values.
const (
	POLLIN   = 0x001 // data (or a queued connection) readable without blocking
	POLLOUT  = 0x004 // writable without blocking
	POLLERR  = 0x008 // error condition (peer read side closed)
	POLLHUP  = 0x010 // peer hung up; reads will drain then EOF
	POLLNVAL = 0x020 // fd not open
)

// Pollfd is one readiness query: which fd, which events the caller cares
// about, and (on return) which events are pending. POLLERR, POLLHUP and
// POLLNVAL are always reported regardless of Events, as in poll(2).
type Pollfd struct {
	Fd      int32
	Events  uint32
	Revents uint32
}

// PollfdSize is the packed size of one Pollfd record.
const PollfdSize = 12

// PollfdMax is the most records one poll call takes; more fail with EINVAL.
const PollfdMax = 4096

// PackPollfds writes fds into b, returning bytes written. b must hold
// len(fds)*PollfdSize bytes.
func PackPollfds(b []byte, fds []Pollfd) int {
	le := binary.LittleEndian
	for i, p := range fds {
		le.PutUint32(b[i*PollfdSize:], uint32(p.Fd))
		le.PutUint32(b[i*PollfdSize+4:], p.Events)
		le.PutUint32(b[i*PollfdSize+8:], p.Revents)
	}
	return len(fds) * PollfdSize
}

// AppendPollfds decodes up to n Pollfd records from b onto dst.
func AppendPollfds(dst []Pollfd, b []byte, n int) []Pollfd {
	le := binary.LittleEndian
	for i := 0; i < n && (i+1)*PollfdSize <= len(b); i++ {
		dst = append(dst, Pollfd{
			Fd:      int32(le.Uint32(b[i*PollfdSize:])),
			Events:  le.Uint32(b[i*PollfdSize+4:]),
			Revents: le.Uint32(b[i*PollfdSize+8:]),
		})
	}
	return dst
}

// UnpackRevents reads the revents of the records packed in b into fds,
// one record per element. b must hold len(fds)*PollfdSize bytes.
func UnpackRevents(b []byte, fds []Pollfd) {
	le := binary.LittleEndian
	for i := range fds {
		fds[i].Revents = le.Uint32(b[i*PollfdSize+8:])
	}
}
