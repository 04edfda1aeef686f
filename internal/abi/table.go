package abi

import "fmt"

// This file is the system-call table both transports share: one row per
// trap naming the call, its Figure 3 class, and the shapes of its
// arguments and result. Every call a process makes is a row here. The
// asynchronous transport carries the typed Args and Result below in
// self-cloning frames (CallFrame, ReplyFrame); the kernel and the
// runtimes each hold a heap codec that converts between a row's shapes
// and the same types, so a call's semantics are written once (the
// kernel's op for the trap) whichever transport carries it. AsyncOnly
// rows travel as frames on every runtime, synchronous ones included:
// fork, and the two registrations, personality (which hands the kernel
// the heap the ring transport lives in, see HeapRings) and snapcap.
//
// Adding a system call takes one row here plus one op in the kernel's op
// table (internal/core/ops.go) and one posix.Proc method that fills Args
// and calls the runtime's codec. A codec changes only when the call
// needs an argument or result shape no row used before.

// Arg is the shape of one system-call argument: the JS value the
// asynchronous transport's frame models, and the integer words the
// synchronous (heap) transport passes instead, pointers addressing the
// caller's SharedArrayBuffer heap.
//
//	shape       async value                 heap words
//	ArgInt      int64                       one
//	ArgFd       int64 (looked up first)     one
//	ArgOpt      int64, left off when zero   one, left off when zero (trailing only)
//	ArgZero     int64 0                     none (pipe2's flags)
//	ArgStr      string                      ptr, len
//	ArgBytes    []byte                      ptr, len
//	ArgStrs     array of strings            ptr, len of NUL-separated strings
//	ArgInts     array of int64              ptr, count of int32s
//	ArgBufs     array of []byte             ptr, count of Iovecs naming writev sources
//	ArgLens     array of lengths            ptr, count of Iovecs naming readv targets
//	ArgPollfds  flat [fd, events, ...]      ptr, count of Pollfds, rewritten with revents
//	ArgOut      result capacity             ptr, cap of the result buffer
//	ArgOutBuf   none                        ptr, cap of the result buffer
//	ArgOutRec   none                        ptr of a result record sized by the row's Ret
//	ArgHeap     SharedArrayBuffer (shared)  none (AsyncOnly rows only)
type Arg uint8

const (
	ArgInt Arg = iota
	ArgFd
	ArgOpt
	ArgZero
	ArgStr
	ArgBytes
	ArgStrs
	ArgInts
	ArgBufs
	ArgLens
	ArgPollfds
	ArgOut
	ArgOutBuf
	ArgOutRec
	ArgHeap
)

// Ret is the shape of a system call's result beyond [ret, errno]: the
// extra values of an asynchronous reply, or what the kernel writes into
// the caller's heap.
type Ret uint8

const (
	RetNone    Ret = iota // nothing beyond ret
	RetBytes              // payload: []byte, or copied into the ArgOut buffer
	RetSegs               // readv: array of []byte, or scattered into the ArgLens targets
	RetStat               // a stat object, or a packed Stat in the ArgOutRec record
	RetStr                // a string, or copied (truncated) into the ArgOutBuf buffer
	RetDirents            // dirent objects, or packed records in the ArgOutBuf buffer
	RetPair               // two ints, or two int32s in the ArgOutRec record (pipe2's fds)
	RetStatus             // one int, or an int32 in the ArgOutRec record unless ptr is 0 (wait4)
	RetPollfds            // revents array, or the ArgPollfds records rewritten
)

// RecSize is the heap size of an ArgOutRec record for a result shape.
func (r Ret) RecSize() int64 {
	switch r {
	case RetStat:
		return StatSize
	case RetPair:
		return 8
	case RetStatus:
		return 4
	}
	return 0
}

// Transport says which codecs carry a row.
type Transport uint8

const (
	Both      Transport = iota // one kernel op serves both transports
	AsyncOnly                  // frames only, on every runtime (fork, the registrations)
)

// Figure 3's system-call classes.
const (
	ClassProc     = "Process Management"
	ClassProcMeta = "Process Metadata"
	ClassSockets  = "Sockets"
	ClassDirIO    = "Directory IO"
	ClassFileIO   = "File IO"
	ClassFileMeta = "File Metadata"
)

// Syscall is one row of the table.
type Syscall struct {
	Name      string // the asynchronous transport's call name
	Class     string // Figure 3 class; "" for this reproduction's extensions
	Transport Transport
	Args      []Arg
	Ret       Ret
}

// Args are one call's typed arguments, filled in row order: ArgInt,
// ArgFd and ArgOpt values go to Int, ArgStr to Str, ArgStrs to Strs,
// ArgOut and ArgOutBuf capacities to Cap, ArgInts and ArgLens (no row
// has both) to Ints, and each other shape to its own field.
type Args struct {
	Int     [3]int64
	Str     [2]string
	Strs    [2][]string
	Bytes   []byte
	Ints    []int
	Bufs    [][]byte
	Pollfds []Pollfd
	// Heap is personality's heap, a *browser.SAB the kernel checks; it
	// crosses by reference, as a SharedArrayBuffer does.
	Heap any
	// Cap is the result buffer's capacity; -1 when the transport leaves
	// it unbounded (an asynchronous ArgOutBuf).
	Cap int64
}

// Result is one call's typed result: ret and errno, plus the field the
// row's Ret names. Pair and Status travel in Aux; Pollfds alias the
// call's Args.Pollfds with revents filled in. A RetBytes payload is Data,
// or, for a read gathered from cache pages, Segs with Data nil.
//
// Data and Pollfds belong to the result: whoever completes a call with
// them gives them up, so an asynchronous reply moves them to the reader
// uncopied. Segs may be views that stay valid only until the op's
// completion returns, so each codec copies them before then.
type Result struct {
	Ret     int64
	Err     Errno
	Data    []byte
	Segs    [][]byte
	Str     string
	Ents    []Dirent
	Pollfds []Pollfd
	Stat    Stat
	Aux     [2]int64
}

// Syscalls is the table, indexed by trap number.
var Syscalls = [SYS_max]Syscall{
	SYS_open:        {"open", ClassFileIO, Both, []Arg{ArgStr, ArgInt, ArgInt}, RetNone},
	SYS_close:       {"close", ClassFileIO, Both, []Arg{ArgInt}, RetNone},
	SYS_read:        {"read", ClassFileIO, Both, []Arg{ArgFd, ArgOut}, RetBytes},
	SYS_write:       {"write", ClassFileIO, Both, []Arg{ArgFd, ArgBytes}, RetNone},
	SYS_pread:       {"pread", ClassFileIO, Both, []Arg{ArgFd, ArgOut, ArgInt}, RetBytes},
	SYS_pwrite:      {"pwrite", ClassFileIO, Both, []Arg{ArgFd, ArgBytes, ArgInt}, RetNone},
	SYS_llseek:      {"llseek", ClassFileIO, Both, []Arg{ArgFd, ArgInt, ArgInt}, RetNone},
	SYS_stat:        {"stat", ClassFileMeta, Both, []Arg{ArgStr, ArgOutRec}, RetStat},
	SYS_lstat:       {"lstat", ClassFileMeta, Both, []Arg{ArgStr, ArgOutRec}, RetStat},
	SYS_fstat:       {"fstat", ClassFileMeta, Both, []Arg{ArgFd, ArgOutRec}, RetStat},
	SYS_access:      {"access", ClassFileMeta, Both, []Arg{ArgStr, ArgInt}, RetNone},
	SYS_readlink:    {"readlink", ClassFileMeta, Both, []Arg{ArgStr, ArgOutBuf}, RetStr},
	SYS_utimes:      {"utimes", ClassFileMeta, Both, []Arg{ArgStr, ArgInt, ArgInt}, RetNone},
	SYS_unlink:      {"unlink", ClassFileIO, Both, []Arg{ArgStr}, RetNone},
	SYS_mkdir:       {"mkdir", ClassDirIO, Both, []Arg{ArgStr, ArgInt}, RetNone},
	SYS_rmdir:       {"rmdir", ClassDirIO, Both, []Arg{ArgStr}, RetNone},
	SYS_getdents:    {"getdents", ClassDirIO, Both, []Arg{ArgFd, ArgOutBuf}, RetDirents},
	SYS_rename:      {"rename", ClassFileIO, Both, []Arg{ArgStr, ArgStr}, RetNone},
	SYS_dup2:        {"dup2", ClassFileIO, Both, []Arg{ArgInt, ArgInt}, RetNone},
	SYS_ftruncate:   {"ftruncate", ClassFileIO, Both, []Arg{ArgFd, ArgInt}, RetNone},
	SYS_pipe2:       {"pipe2", ClassProc, Both, []Arg{ArgOutRec, ArgZero}, RetPair},
	SYS_spawn:       {"spawn", ClassProc, Both, []Arg{ArgStr, ArgStrs, ArgStrs, ArgInts}, RetNone},
	SYS_fork:        {"fork", ClassProc, AsyncOnly, []Arg{ArgBytes, ArgStr}, RetNone},
	SYS_exec:        {"exec", ClassProc, Both, []Arg{ArgStr, ArgStrs, ArgStrs}, RetNone},
	SYS_wait4:       {"wait4", ClassProc, Both, []Arg{ArgInt, ArgOutRec, ArgInt}, RetStatus},
	SYS_exit:        {"exit", ClassProc, Both, []Arg{ArgInt}, RetNone},
	SYS_kill:        {"kill", ClassProc, Both, []Arg{ArgInt, ArgInt}, RetNone},
	SYS_signal:      {"signal", ClassProc, Both, []Arg{ArgInt, ArgInt}, RetNone},
	SYS_getpid:      {"getpid", ClassProcMeta, Both, nil, RetNone},
	SYS_getppid:     {"getppid", ClassProcMeta, Both, nil, RetNone},
	SYS_getcwd:      {"getcwd", ClassProcMeta, Both, []Arg{ArgOutBuf}, RetStr},
	SYS_chdir:       {"chdir", ClassProcMeta, Both, []Arg{ArgStr}, RetNone},
	SYS_socket:      {"socket", ClassSockets, Both, nil, RetNone},
	SYS_bind:        {"bind", ClassSockets, Both, []Arg{ArgFd, ArgInt}, RetNone},
	SYS_listen:      {"listen", ClassSockets, Both, []Arg{ArgFd, ArgInt}, RetNone},
	SYS_accept:      {"accept", ClassSockets, Both, []Arg{ArgFd, ArgOpt}, RetNone},
	SYS_connect:     {"connect", ClassSockets, Both, []Arg{ArgFd, ArgInt}, RetNone},
	SYS_getsockname: {"getsockname", ClassSockets, Both, []Arg{ArgFd}, RetNone},
	SYS_symlink:     {"symlink", ClassFileIO, Both, []Arg{ArgStr, ArgStr}, RetNone},
	SYS_readv:       {"readv", ClassFileIO, Both, []Arg{ArgFd, ArgLens}, RetSegs},
	SYS_writev:      {"writev", ClassFileIO, Both, []Arg{ArgFd, ArgBufs}, RetNone},
	SYS_fsync:       {"fsync", ClassFileIO, Both, []Arg{ArgFd}, RetNone},
	SYS_poll:        {"poll", ClassSockets, Both, []Arg{ArgPollfds, ArgInt}, RetPollfds},
	SYS_setfl:       {"setfl", ClassSockets, Both, []Arg{ArgFd, ArgInt}, RetNone},
	SYS_personality: {"personality", "", AsyncOnly, []Arg{ArgHeap}, RetNone},
	SYS_snapcap:     {"snapcap", "", AsyncOnly, nil, RetNone},
}

// ReaddirAlias is the paper's Figure 3 name for getdents.
const ReaddirAlias = "readdir"

// SyscallName maps a trap number to its name, the name the kernel counts
// its calls under.
func SyscallName(n int) string {
	if n > 0 && n < SYS_max && Syscalls[n].Name != "" {
		return Syscalls[n].Name
	}
	return fmt.Sprintf("sys(%d)", n)
}

// The asynchronous transport's messages. Each frame is the typed form of
// the JS object a Browsix runtime or kernel posts. No sender touches a
// frame after posting it, so a frame moves to its receiver instead of
// being copied whole: its CloneInPlace copies into the frame only the
// payload it borrows from the sender (buffers, lists, records), drops
// what the object would not carry, and returns the bytes browser.Clone
// charges for the object, so the virtual cost of a call is that of the
// structured clone the paper measures (§3.2).

// CallFrame is one table-driven call, modelling {type: "syscall", id,
// name, args: [...]} with the arguments its row names, in row order.
type CallFrame struct {
	ID   int64
	Trap int
	Args Args
}

// ReplyFrame answers a CallFrame, modelling {type: "reply", id, ret:
// [ret, errno, extra...]} with the extra values row Trap's Ret names. A
// call refused before its op ran (a bad trap or argument) is answered
// with Trap 0: [ret, errno] only.
type ReplyFrame struct {
	ID   int64
	Trap int
	Res  Result

	// pool is where Release hands the frame back; host-side
	// bookkeeping, not part of the modelled object.
	pool *ReplyPool
}

// Frames are recycled, so a warm call allocates only the payload its
// clones copy. A call frame goes back to the runtime that posted it
// once the reply arrives (the kernel decodes a frame before it
// replies), through a CallPool the runtime owns. A reply frame goes
// back to its task's ReplyPool when the runtime that received it calls
// Release after reading the result. A frame nobody hands back is left
// to the garbage collector. Both are zeroed on the way back, so a
// recycled frame carries no payload into its next use and clones
// exactly as a fresh one does.

// FreeList is a last-in first-out free list of *T. It neither makes
// nor clears values: Take returns nil when the list is empty, and a
// caller that needs a value cleared clears it on Put.
type FreeList[T any] struct{ free []*T }

// Take returns the value put last, or nil when there is none.
func (l *FreeList[T]) Take() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	v := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return v
}

// Put keeps v for a later Take. The caller must be v's last holder.
func (l *FreeList[T]) Put(v *T) { l.free = append(l.free, v) }

// CallPool is a free list of call frames.
type CallPool struct{ list FreeList[CallFrame] }

// Take returns a zeroed call frame.
func (p *CallPool) Take() *CallFrame {
	if f := p.list.Take(); f != nil {
		return f
	}
	return &CallFrame{}
}

// Put zeroes f and keeps it for a later Take. The caller must be the
// frame's last holder.
func (p *CallPool) Put(f *CallFrame) {
	*f = CallFrame{}
	p.list.Put(f)
}

// ReplyPool is a free list of reply frames.
type ReplyPool struct{ list FreeList[ReplyFrame] }

// Take returns a zeroed reply frame that Release hands back to p.
func (p *ReplyPool) Take() *ReplyFrame {
	f := p.list.Take()
	if f == nil {
		f = &ReplyFrame{}
	}
	f.pool = p
	return f
}

// Release zeroes f and hands it back to the pool it was taken from; a
// frame not taken from a pool, or already released, is left alone. The
// receiver calls it once it has read the result, and must not touch f
// afterwards.
func (f *ReplyFrame) Release() {
	p := f.pool
	if p == nil {
		return
	}
	*f = ReplyFrame{}
	p.list.Put(f)
}

// RingBell is the ring transport's doorbell, modelling {type:
// "ringbell"}; the calls wait in the request ring.
type RingBell struct{}

// Clone sizes, by browser.Clone's rules: a number is 8 bytes, a string
// or buffer its length, an array element 8 more, and an object property
// 8 more plus its key's length.
const (
	numSize = 8
	// statObj is {mode, size, mtime, atime, ctime, nlink, ino}.
	statObj = int64(7*(numSize+8) + len("modesizemtimeatimectimenlinkino"))
	// direntObj is {name, type, ino} less the name's bytes.
	direntObj = int64(3*8 + len("nametypeino") + 2*numSize)
)

func prop(key string, val int64) int64 { return int64(len(key)) + 8 + val }

var noRow Syscall

// rowOf is trap's row, or an empty one for a number outside the table.
func rowOf(trap int) *Syscall {
	if trap > 0 && trap < SYS_max {
		return &Syscalls[trap]
	}
	return &noRow
}

// CloneInPlace keeps only the arguments f's row sends (an ArgOpt only
// when non-zero, Pollfds without revents), each a copy of the sender's,
// and sizes the object.
func (f *CallFrame) CloneInPlace() int64 {
	row := rowOf(f.Trap)
	var c Args
	a, ca := &f.Args, &c
	var n int64 // the args array
	ni, ns, nl := 0, 0, 0
	for _, shape := range row.Args {
		switch shape {
		case ArgInt, ArgFd, ArgOpt:
			if shape != ArgOpt || a.Int[ni] != 0 {
				ca.Int[ni] = a.Int[ni]
				n += numSize + 8
			}
			ni++
		case ArgZero:
			n += numSize + 8
		case ArgOut:
			ca.Cap = a.Cap
			n += numSize + 8
		case ArgStr:
			ca.Str[ns] = a.Str[ns]
			n += int64(len(a.Str[ns])) + 8
			ns++
		case ArgStrs:
			ca.Strs[nl] = append(make([]string, 0, len(a.Strs[nl])), a.Strs[nl]...)
			for _, s := range a.Strs[nl] {
				n += int64(len(s)) + 8
			}
			n += 8
			nl++
		case ArgBytes:
			ca.Bytes = append(make([]byte, 0, len(a.Bytes)), a.Bytes...)
			n += int64(len(a.Bytes)) + 8
		case ArgInts, ArgLens:
			ca.Ints = append([]int(nil), a.Ints...)
			n += int64(len(a.Ints))*(numSize+8) + 8
		case ArgHeap:
			ca.Heap = a.Heap
			n += 8
		case ArgBufs:
			var m int64
			ca.Bufs, m = cloneBufs(a.Bufs, false)
			n += m + 8
		case ArgPollfds:
			ca.Pollfds = make([]Pollfd, len(a.Pollfds))
			for i, p := range a.Pollfds {
				ca.Pollfds[i] = Pollfd{Fd: p.Fd, Events: p.Events}
			}
			n += int64(len(a.Pollfds))*2*(numSize+8) + 8
		}
	}
	f.Args = c
	return prop("type", int64(len("syscall"))) + prop("id", numSize) + prop("name", int64(len(row.Name))) + prop("args", n)
}

// CloneInPlace keeps ret, errno and, on success, the result field row
// Trap's Ret names, and sizes the object. Data and Pollfds, which
// belong to the result, move; everything else is copied (readv's
// segments without empty ones, read's segments as one buffer). A
// failed readv replies [-1, errno].
func (f *ReplyFrame) CloneInPlace() int64 {
	r := &f.Res
	c := Result{Ret: r.Ret, Err: r.Err}
	ok := r.Err == OK
	n := int64(2 * (numSize + 8)) // the ret array
	switch rowOf(f.Trap).Ret {
	case RetBytes:
		// Data moves. A gathered read's segments, which may be views
		// the sender reuses once this returns, travel as the one
		// buffer a read replies with (empty, not nil, at EOF).
		data := r.Data
		if data == nil {
			size := 0
			for _, s := range r.Segs {
				size += len(s)
			}
			data = make([]byte, 0, size)
			for _, s := range r.Segs {
				data = append(data, s...)
			}
		}
		if ok {
			c.Data = data
		}
		n += int64(len(data)) + 8
	case RetSegs:
		if !ok {
			c.Ret = -1
			break
		}
		var m int64
		c.Segs, m = cloneBufs(r.Segs, true)
		n += m + 8
	case RetStat:
		if ok {
			c.Stat = r.Stat
		}
		n += statObj + 8
	case RetStr:
		if ok {
			c.Str = r.Str
		}
		n += int64(len(r.Str)) + 8
	case RetDirents:
		if ok {
			c.Ents = append([]Dirent(nil), r.Ents...)
		}
		for _, e := range r.Ents {
			n += int64(len(e.Name)) + direntObj + 8
		}
		n += 8
	case RetPair:
		if ok {
			c.Aux = r.Aux
		}
		n += 2 * (numSize + 8)
	case RetStatus:
		if ok {
			c.Aux[0] = r.Aux[0]
		}
		n += numSize + 8
	case RetPollfds:
		if ok {
			c.Pollfds = r.Pollfds
		}
		n += int64(len(r.Pollfds))*(numSize+8) + 8
	}
	f.Res = c
	return prop("type", int64(len("reply"))) + prop("id", numSize) + prop("ret", n)
}

// CloneInPlace sizes the doorbell.
func (RingBell) CloneInPlace() int64 { return prop("type", int64(len("ringbell"))) }

// cloneBufs deep-copies bufs into one backing array, each copy
// capacity-limited to its own bytes, and sizes the array of all of them.
// dropEmpty leaves the empty ones out of the copy.
func cloneBufs(bufs [][]byte, dropEmpty bool) ([][]byte, int64) {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	size := int64(total + 8*len(bufs))
	if len(bufs) == 0 || dropEmpty && total == 0 {
		return nil, size
	}
	flat := make([]byte, total)
	out := make([][]byte, 0, len(bufs))
	off := 0
	for _, b := range bufs {
		if len(b) > 0 || !dropEmpty {
			end := off + copy(flat[off:], b)
			out = append(out, flat[off:end:end])
			off = end
		}
	}
	return out, size
}
