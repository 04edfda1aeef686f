// Package posix defines the POSIX-flavoured programming interface that
// "unmodified" programs in this reproduction are written against, plus the
// program registry and the on-disk executable format.
//
// In the paper, programs are C/Go/JavaScript sources compiled to
// JavaScript by Emscripten/GopherJS or run by browser-node; the same
// program binary runs under Browsix or natively because the runtime maps
// POSIX calls onto Browsix system calls. Here a "program" is a Go function
// written against Proc; the runtime adapter behind Proc determines the
// syscall transport (Browsix async, Browsix sync, or direct host calls)
// and the CPU cost model (asm.js, Emterpreter, GopherJS, Node, native).
// One program source therefore runs everywhere — the property the paper's
// case studies depend on.
package posix

import (
	"fmt"

	"repro/internal/abi"
)

// Proc is the process-side system interface: what libc + a bit of POSIX
// feels like to a program. Calls block the calling program (coroutine)
// but never the underlying browser context on asynchronous runtimes.
type Proc interface {
	// Identity and environment.
	Getpid() int
	Getppid() int
	Args() []string
	Environ() []string
	Getenv(key string) string
	Setenv(key, value string)

	// Files.
	Open(path string, flags int, mode uint32) (int, abi.Errno)
	Close(fd int) abi.Errno
	Read(fd int, n int) ([]byte, abi.Errno)
	Write(fd int, b []byte) (int, abi.Errno)
	Pread(fd int, n int, off int64) ([]byte, abi.Errno)
	Pwrite(fd int, b []byte, off int64) (int, abi.Errno)
	Seek(fd int, off int64, whence int) (int64, abi.Errno)
	Ftruncate(fd int, size int64) abi.Errno
	// Fsync checks fd and returns: every write on it already reached the
	// backing store before that write returned.
	Fsync(fd int) abi.Errno
	Dup2(oldfd, newfd int) abi.Errno

	// Vectored I/O (readv/writev). Readv reads up to the sum of lens
	// bytes with a single blocking point, returning whatever was
	// immediately available as a list of segments (nil at EOF). Writev
	// writes every buffer, in order, returning the total written. On the
	// Browsix synchronous transport these map to single ring/trap
	// dispatches instead of one kernel round trip per buffer.
	Readv(fd int, lens []int) ([][]byte, abi.Errno)
	Writev(fd int, bufs [][]byte) (int64, abi.Errno)

	// Metadata.
	Stat(path string) (abi.Stat, abi.Errno)
	Lstat(path string) (abi.Stat, abi.Errno)
	// StatBatch stats many paths with per-path results (lstat selects
	// no-trailing-symlink semantics for the whole batch). On the Browsix
	// ring transport the whole batch travels as one doorbell of stat
	// frames answered with one notify — the stat-storm fast path `ls -l`
	// and make-style probing ride.
	StatBatch(paths []string, lstat bool) ([]abi.Stat, []abi.Errno)
	Fstat(fd int) (abi.Stat, abi.Errno)
	Access(path string, mode int) abi.Errno
	Readlink(path string) (string, abi.Errno)
	Utimes(path string, atime, mtime int64) abi.Errno

	// Directories.
	Mkdir(path string, mode uint32) abi.Errno
	Rmdir(path string) abi.Errno
	Unlink(path string) abi.Errno
	Rename(oldp, newp string) abi.Errno
	Symlink(target, link string) abi.Errno
	// Getdents returns the next chunk of directory entries from the fd's
	// cursor (at most abi.DirentChunk); an empty result marks the end.
	// Use ReadDir to drain a whole directory.
	Getdents(fd int) ([]abi.Dirent, abi.Errno)
	Chdir(path string) abi.Errno
	Getcwd() (string, abi.Errno)

	// Processes.
	Pipe() (rfd, wfd int, err abi.Errno)
	Spawn(path string, argv, env []string, files []int) (int, abi.Errno)
	// Fork snapshots the program's serialized state (mem) and resume
	// label, ships it to the kernel, and returns the child pid in the
	// parent. The child process re-enters via Program.ResumeFork. Only
	// Emscripten-style asynchronous runtimes support it (§3.3/§4.3).
	Fork(label string, mem []byte) (int, abi.Errno)
	Exec(path string, argv, env []string) abi.Errno
	Wait4(pid int, options int) (wpid, status int, err abi.Errno)
	Exit(code int) // never returns
	Kill(pid, sig int) abi.Errno
	// Signal registers a handler (nil restores the default action).
	Signal(sig int, handler func(sig int)) abi.Errno

	// Sockets.
	Socket() (int, abi.Errno)
	Bind(fd, port int) abi.Errno
	Listen(fd, backlog int) abi.Errno
	Accept(fd int) (int, abi.Errno)
	Connect(fd, port int) abi.Errno
	Getsockname(fd int) (int, abi.Errno)
	// AcceptBatch drains up to max queued connections from a
	// non-blocking listener, returning the new (non-blocking) connection
	// fds; an empty slice means the backlog was empty. On the Browsix
	// ring transport the whole batch travels as ONE doorbell of accept
	// frames answered in one drained pass with one notify — an accept
	// storm costs one crossing.
	AcceptBatch(fd, max int) ([]int, abi.Errno)
	// Poll blocks until at least one of fds is ready (or the timeout
	// elapses), filling Revents in place and returning the ready count.
	// timeoutNs < 0 blocks indefinitely, 0 probes without blocking.
	Poll(fds []abi.Pollfd, timeoutNs int64) (int, abi.Errno)
	// Setfl sets a descriptor's status flags (fcntl F_SETFL subset;
	// only O_NONBLOCK is honored).
	Setfl(fd, flags int) abi.Errno

	// Cost accounting: ns of *native-equivalent* CPU work. The runtime
	// scales by its slowdown factor (asm.js, Emterpreter, GopherJS…).
	// CPU64 marks 64-bit-integer-heavy work, which compiled-to-JS
	// runtimes execute far slower (the paper's meme-generation
	// bottleneck).
	CPU(ns int64)
	CPU64(ns int64)

	// RuntimeName identifies the hosting runtime ("node", "gopherjs",
	// "em-sync", "em-async", "native", "node-host").
	RuntimeName() string
}

// Program is a registered executable body.
type Program struct {
	Name string
	// Main is the entry point; its return value is the exit code.
	Main func(p Proc) int
	// ResumeFork resumes a forked child from a memory snapshot and
	// resume label (the Emscripten "global memory + program counter"
	// mechanism, §4.3). Only programs that call Fork provide it.
	ResumeFork func(p Proc, mem []byte, label string) int
}

var registry = map[string]*Program{}

// Register adds a program to the global registry (programs register from
// init functions, like busybox applets linking into one binary).
func Register(p *Program) {
	if p.Name == "" || p.Main == nil {
		panic("posix: invalid program registration")
	}
	registry[p.Name] = p
}

// Lookup finds a registered program.
func Lookup(name string) *Program { return registry[name] }

// ProgramNames lists registered programs (diagnostics).
func ProgramNames() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	return out
}

// ---------------------------------------------------------------------------
// Executable format: the bytes staged into the Browsix file system for a
// "compiled to JavaScript" program. The header mimics a JS comment block;
// the body is padding standing in for the compiled code, sized like the
// real artifact so worker script-eval cost is modelled faithfully.
// ---------------------------------------------------------------------------

// Executable renders executable-file bytes for a program under a given
// runtime, padded to size bytes (the modelled compiled-JS size).
func Executable(progName, runtime string, size int) []byte {
	hdr := fmt.Sprintf("//# browsix-executable v1\n//# program=%s\n//# runtime=%s\n", progName, runtime)
	if size < len(hdr) {
		size = len(hdr)
	}
	out := make([]byte, size)
	copy(out, hdr)
	for i := len(hdr); i < size; i++ {
		out[i] = '/'
	}
	return out
}

// ParseExecutable decodes an executable header.
func ParseExecutable(b []byte) (progName, runtime string, ok bool) {
	const magic = "//# browsix-executable v1\n"
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return "", "", false
	}
	rest := b[len(magic):]
	line := func() string {
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\n' {
				l := string(rest[:i])
				rest = rest[i+1:]
				return l
			}
		}
		l := string(rest)
		rest = nil
		return l
	}
	l1, l2 := line(), line()
	const p1 = "//# program="
	const p2 = "//# runtime="
	if len(l1) <= len(p1) || l1[:len(p1)] != p1 || len(l2) <= len(p2) || l2[:len(p2)] != p2 {
		return "", "", false
	}
	return l1[len(p1):], l2[len(p2):], true
}
