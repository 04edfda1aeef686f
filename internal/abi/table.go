package abi

import "fmt"

// This file is the system-call table both transports share: one row per
// trap naming the call, its Figure 3 class, and the shapes of its
// arguments and result. The kernel and the runtimes each hold one codec
// per transport that converts between a row's shapes and the typed Args
// and Result below, so a call's semantics are written once (the kernel's
// op for the trap) whichever transport carries it.
//
// Adding a system call takes one row here plus one op in the kernel's op
// table (internal/core/ops.go) and one posix.Proc method that fills Args
// and calls the runtime's codec. A codec changes only when the call
// needs an argument or result shape no row used before.

// Arg is the shape of one system-call argument: what the asynchronous
// transport clones into the message, and the integer words the
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
	AsyncOnly                  // only the asynchronous transport (fork)
	HeapOnly                   // only the heap transport (grants and leases)
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

// Syscall is one row of the table. Codec-local rows (Transport other
// than Both) leave Args empty: their one codec decodes them itself.
type Syscall struct {
	Name      string // the asynchronous transport's call name
	Class     string // Figure 3 class; "" for this reproduction's extensions
	Transport Transport
	Args      []Arg
	Ret       Ret
}

// Args are one call's typed arguments, filled in row order: ArgInt,
// ArgFd and ArgOpt values go to Int, ArgStr to Str, ArgStrs to Strs,
// ArgOut and ArgOutBuf capacities to Cap, and each list shape to its own
// field.
type Args struct {
	Int     [3]int64
	Str     [2]string
	Strs    [2][]string
	Bytes   []byte
	Ints    []int
	Bufs    [][]byte
	Lens    []int
	Pollfds []Pollfd
	// Cap is the result buffer's capacity; -1 when the transport leaves
	// it unbounded (an asynchronous ArgOutBuf).
	Cap int64
}

// Result is one call's typed result: ret and errno, plus the field the
// row's Ret names. Pair and Status travel in Aux; Pollfds alias the
// call's Args.Pollfds with revents filled in.
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
	SYS_fork:        {"fork", ClassProc, AsyncOnly, nil, RetNone},
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
	SYS_readg:       {"readg", "", HeapOnly, nil, RetNone},
	SYS_unlease:     {"unlease", "", HeapOnly, nil, RetNone},
	SYS_wgalloc:     {"wgalloc", "", HeapOnly, nil, RetNone},
	SYS_writeg:      {"writeg", "", HeapOnly, nil, RetNone},
	SYS_poll:        {"poll", ClassSockets, Both, []Arg{ArgPollfds, ArgInt}, RetPollfds},
	SYS_setfl:       {"setfl", ClassSockets, Both, []Arg{ArgFd, ArgInt}, RetNone},
}

// ReaddirAlias is the paper's Figure 3 name for getdents; the
// asynchronous transport accepts it too.
const ReaddirAlias = "readdir"

var trapByName = func() map[string]int {
	m := map[string]int{ReaddirAlias: SYS_getdents}
	for trap, row := range Syscalls {
		if row.Name != "" {
			m[row.Name] = trap
		}
	}
	return m
}()

// SyscallTrap maps an asynchronous call name to its trap number, or 0
// when no row has that name.
func SyscallTrap(name string) int { return trapByName[name] }

// SyscallName maps a trap number to its name, the same name used on the
// asynchronous transport.
func SyscallName(n int) string {
	if n > 0 && n < SYS_max && Syscalls[n].Name != "" {
		return Syscalls[n].Name
	}
	return fmt.Sprintf("sys(%d)", n)
}
