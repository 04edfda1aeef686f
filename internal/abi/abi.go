// Package abi defines the system-call ABI shared between the Browsix kernel
// and the language runtimes: error numbers, open flags, seek whences, signal
// numbers, wait options, and the wire representations of stat and dirent
// records. It corresponds to the "shared syscall module" in Figure 2 of the
// paper, which both the kernel and every runtime link against.
package abi

import "fmt"

// Errno is a Unix error number. 0 means success. Values follow Linux/musl so
// that programs written against the runtimes behave like their native
// counterparts.
type Errno int

// Error numbers used by the kernel and runtimes.
const (
	OK            Errno = 0
	EPERM         Errno = 1
	ENOENT        Errno = 2
	ESRCH         Errno = 3
	EINTR         Errno = 4
	EIO           Errno = 5
	ENOEXEC       Errno = 8
	EBADF         Errno = 9
	ECHILD        Errno = 10
	EAGAIN        Errno = 11
	ENOMEM        Errno = 12
	EACCES        Errno = 13
	EFAULT        Errno = 14
	EBUSY         Errno = 16
	EEXIST        Errno = 17
	EXDEV         Errno = 18
	ENODEV        Errno = 19
	ENOTDIR       Errno = 20
	EISDIR        Errno = 21
	EINVAL        Errno = 22
	ENFILE        Errno = 23
	EMFILE        Errno = 24
	ENOTTY        Errno = 25
	EFBIG         Errno = 27
	ENOSPC        Errno = 28
	ESPIPE        Errno = 29
	EROFS         Errno = 30
	EMLINK        Errno = 31
	EPIPE         Errno = 32
	ERANGE        Errno = 34
	ENAMETOOLONG  Errno = 36
	ENOSYS        Errno = 38
	ENOTEMPTY     Errno = 39
	ELOOP         Errno = 40
	ENOTSOCK      Errno = 88
	EOPNOTSUPP    Errno = 95
	EADDRINUSE    Errno = 98
	EADDRNOTAVAIL Errno = 99
	ENETUNREACH   Errno = 101
	ECONNRESET    Errno = 104
	EISCONN       Errno = 106
	ENOTCONN      Errno = 107
	ETIMEDOUT     Errno = 110
	ECONNREFUSED  Errno = 111
)

var errnoNames = map[Errno]string{
	OK: "success", EPERM: "EPERM", ENOENT: "ENOENT", ESRCH: "ESRCH",
	EINTR: "EINTR", EIO: "EIO", ENOEXEC: "ENOEXEC", EBADF: "EBADF", ECHILD: "ECHILD",
	EAGAIN: "EAGAIN", ENOMEM: "ENOMEM", EACCES: "EACCES", EFAULT: "EFAULT",
	EBUSY: "EBUSY", EEXIST: "EEXIST", EXDEV: "EXDEV", ENODEV: "ENODEV",
	ENOTDIR: "ENOTDIR", EISDIR: "EISDIR", EINVAL: "EINVAL", ENFILE: "ENFILE",
	EMFILE: "EMFILE", ENOTTY: "ENOTTY", EFBIG: "EFBIG", ENOSPC: "ENOSPC",
	ESPIPE: "ESPIPE", EROFS: "EROFS", EMLINK: "EMLINK", EPIPE: "EPIPE",
	ERANGE: "ERANGE", ENAMETOOLONG: "ENAMETOOLONG", ENOSYS: "ENOSYS",
	ENOTEMPTY: "ENOTEMPTY", ELOOP: "ELOOP", ENOTSOCK: "ENOTSOCK",
	EOPNOTSUPP: "EOPNOTSUPP", EADDRINUSE: "EADDRINUSE",
	EADDRNOTAVAIL: "EADDRNOTAVAIL", ENETUNREACH: "ENETUNREACH",
	ECONNRESET: "ECONNRESET", EISCONN: "EISCONN", ENOTCONN: "ENOTCONN",
	ETIMEDOUT: "ETIMEDOUT", ECONNREFUSED: "ECONNREFUSED",
}

// Error implements the error interface so an Errno can be returned where a
// Go error is expected. OK should never be treated as an error value.
func (e Errno) Error() string { return e.String() }

// String returns the conventional symbolic name (e.g. "ENOENT").
func (e Errno) String() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return fmt.Sprintf("errno(%d)", int(e))
}

// Open flags, matching Linux values so runtime marshalling is a pass-through.
const (
	O_RDONLY    = 0x0
	O_WRONLY    = 0x1
	O_RDWR      = 0x2
	O_ACCMODE   = 0x3
	O_CREAT     = 0x40
	O_EXCL      = 0x80
	O_TRUNC     = 0x200
	O_APPEND    = 0x400
	O_NONBLOCK  = 0x800
	O_DIRECTORY = 0x10000
)

// Seek whences for llseek.
const (
	SEEK_SET = 0
	SEEK_CUR = 1
	SEEK_END = 2
)

// Access mode bits for the access system call.
const (
	F_OK = 0
	X_OK = 1
	W_OK = 2
	R_OK = 4
)

// Signal numbers (the POSIX subset Browsix supports, §3.3).
const (
	SIGHUP  = 1
	SIGINT  = 2
	SIGQUIT = 3
	SIGKILL = 9
	SIGUSR1 = 10
	SIGUSR2 = 12
	SIGPIPE = 13
	SIGALRM = 14
	SIGTERM = 15
	SIGCHLD = 17
	SIGCONT = 18
	SIGSTOP = 19
)

// SignalName returns the conventional name ("SIGKILL") for a signal number.
func SignalName(sig int) string {
	switch sig {
	case SIGHUP:
		return "SIGHUP"
	case SIGINT:
		return "SIGINT"
	case SIGQUIT:
		return "SIGQUIT"
	case SIGKILL:
		return "SIGKILL"
	case SIGUSR1:
		return "SIGUSR1"
	case SIGUSR2:
		return "SIGUSR2"
	case SIGPIPE:
		return "SIGPIPE"
	case SIGALRM:
		return "SIGALRM"
	case SIGTERM:
		return "SIGTERM"
	case SIGCHLD:
		return "SIGCHLD"
	case SIGCONT:
		return "SIGCONT"
	case SIGSTOP:
		return "SIGSTOP"
	default:
		return fmt.Sprintf("SIG(%d)", sig)
	}
}

// wait4 options.
const (
	WNOHANG = 1
)

// Exit-status encoding, following the traditional wait(2) layout:
// normal exit -> code<<8; killed by signal -> signal number in low 7 bits.

// ExitStatus encodes a normal exit with the given code.
func ExitStatus(code int) int { return (code & 0xff) << 8 }

// SignalStatus encodes termination by a signal.
func SignalStatus(sig int) int { return sig & 0x7f }

// WIFEXITED reports whether the status denotes a normal exit.
func WIFEXITED(status int) bool { return status&0x7f == 0 }

// WEXITSTATUS extracts the exit code from a normal-exit status.
func WEXITSTATUS(status int) int { return (status >> 8) & 0xff }

// WIFSIGNALED reports whether the status denotes death by signal.
func WIFSIGNALED(status int) bool { return status&0x7f != 0 }

// WTERMSIG extracts the terminating signal number.
func WTERMSIG(status int) int { return status & 0x7f }

// File mode bits (type portion matches Linux S_IFMT).
const (
	S_IFMT   = 0xf000
	S_IFDIR  = 0x4000
	S_IFCHR  = 0x2000
	S_IFREG  = 0x8000
	S_IFIFO  = 0x1000
	S_IFLNK  = 0xa000
	S_IFSOCK = 0xc000
)

// Stat is the wire form of a stat result. Times are virtual nanoseconds
// since boot (the simulator's clock), mirroring the paper's use of BrowserFS
// Date-based mtimes.
type Stat struct {
	Mode  uint32 // type | permission bits
	Size  int64
	Mtime int64 // modification time, virtual ns
	Atime int64
	Ctime int64
	Nlink int
	Ino   uint64
}

// IsDir reports whether the stat describes a directory.
func (s Stat) IsDir() bool { return s.Mode&S_IFMT == S_IFDIR }

// IsRegular reports whether the stat describes a regular file.
func (s Stat) IsRegular() bool { return s.Mode&S_IFMT == S_IFREG }

// IsSymlink reports whether the stat describes a symbolic link.
func (s Stat) IsSymlink() bool { return s.Mode&S_IFMT == S_IFLNK }

// Dirent types, matching Linux d_type values.
const (
	DT_UNKNOWN = 0
	DT_FIFO    = 1
	DT_CHR     = 2
	DT_DIR     = 4
	DT_REG     = 8
	DT_LNK     = 10
	DT_SOCK    = 12
)

// Dirent is one directory entry as returned by getdents.
type Dirent struct {
	Name string
	Type int
	Ino  uint64
}

// DirentChunk is the maximum entries one getdents call returns: large
// directories stream through continuation calls against the descriptor's
// cursor instead of materializing the whole listing per call. Sized so a
// chunk of worst-case names packs into the runtimes' 64 KiB getdents
// buffer.
const DirentChunk = 128

// FdMax bounds descriptor numbers, as RLIMIT_NOFILE does on Linux: dup2
// to a newfd outside [0, FdMax) fails with EBADF.
const FdMax = 65536

// DirentTypeFromMode maps a stat mode to a dirent type.
func DirentTypeFromMode(mode uint32) int {
	switch mode & S_IFMT {
	case S_IFDIR:
		return DT_DIR
	case S_IFREG:
		return DT_REG
	case S_IFLNK:
		return DT_LNK
	case S_IFIFO:
		return DT_FIFO
	case S_IFSOCK:
		return DT_SOCK
	case S_IFCHR:
		return DT_CHR
	default:
		return DT_UNKNOWN
	}
}

// Standard file descriptors.
const (
	Stdin  = 0
	Stdout = 1
	Stderr = 2
)

// Syscall numbers for the synchronous (SharedArrayBuffer) transport. The
// asynchronous transport names calls by string, as Browsix does; the sync
// transport uses small integers like a real kernel ABI. Values are arbitrary
// but stable.
const (
	SYS_open = iota + 1
	SYS_close
	SYS_read
	SYS_write
	SYS_pread
	SYS_pwrite
	SYS_llseek
	SYS_stat
	SYS_lstat
	SYS_fstat
	SYS_access
	SYS_readlink
	SYS_utimes
	SYS_unlink
	SYS_mkdir
	SYS_rmdir
	SYS_getdents
	SYS_rename
	SYS_dup2
	SYS_ftruncate
	SYS_pipe2
	SYS_spawn
	SYS_fork
	SYS_exec
	SYS_wait4
	SYS_exit
	SYS_kill
	SYS_signal
	SYS_getpid
	SYS_getppid
	SYS_getcwd
	SYS_chdir
	SYS_socket
	SYS_bind
	SYS_listen
	SYS_accept
	SYS_connect
	SYS_getsockname
	SYS_symlink
	SYS_readv
	SYS_writev
	SYS_fsync
	// SYS_poll is readiness multiplexing over an array of Pollfd records
	// staged in the caller's heap (poll.go): the kernel fills revents and
	// returns the ready count, parking the caller until something is
	// ready when the timeout allows.
	SYS_poll
	// SYS_setfl updates a descriptor's status flags (fcntl F_SETFL
	// subset; only O_NONBLOCK is honored).
	SYS_setfl
	SYS_max // sentinel
)
