package rt

import (
	"repro/internal/abi"
	"repro/internal/fs"
	"repro/internal/posix"
	"repro/internal/sched"
)

// HostProc runs a program directly on a (simulated) operating system — no
// browser, no Browsix. It provides the two baselines of Figure 9: native
// GNU/Linux utilities (Kind=native) and the same JavaScript utilities
// under Node.js on Linux (Kind=node-host). System calls go straight to
// the file system at native cost; CPU work is scaled by the runtime's
// multiplier only.
//
// Host processes are single-process: spawn/fork/pipes/sockets return
// ENOSYS (the baselines never need them).
type HostProc struct {
	sim  *sched.Sim
	ctx  *sched.Ctx
	fsys *fs.FileSystem
	kind Kind
	cost Cost

	args []string
	env  []string
	cwd  string

	fds    map[int]*hostFD
	nextFd int

	// Stdout and Stderr capture the process's output.
	Stdout []byte
	Stderr []byte
}

type hostFD struct {
	h     fs.FileHandle
	dir   string // non-empty when the fd is an open directory
	off   int64
	flags int
	std   int // 1 stdout, 2 stderr, 3 stdin
	path  string
	dups  int // other descriptors sharing this open file (dup2)
}

// HostResult is the outcome of RunHost.
type HostResult struct {
	Code    int
	Stdout  []byte
	Stderr  []byte
	Elapsed int64 // virtual ns, including runtime start-up
}

// RunHost executes a registered program to completion on a host runtime,
// against the given file system image.
func RunHost(sim *sched.Sim, fsys *fs.FileSystem, kind Kind, argv, env []string, cwd string) HostResult {
	prog := posix.Lookup(posix.Basename(argv[0]))
	if prog == nil {
		return HostResult{Code: 127, Stderr: []byte("host: no such program: " + argv[0] + "\n")}
	}
	h := &HostProc{
		sim:  sim,
		ctx:  sim.NewCtx("host:" + prog.Name),
		fsys: fsys,
		kind: kind,
		cost: CostOf(kind),
		args: argv,
		env:  env,
		cwd:  fs.Clean(cwd),
		fds:  map[int]*hostFD{0: {std: 3}, 1: {std: 1}, 2: {std: 2}},
	}
	h.nextFd = 3
	var res HostResult
	done := false
	sim.Post(h.ctx, h.ctx.Now(), func() {
		start := h.ctx.Now()
		sim.Charge(h.cost.InitNs) // exec + runtime boot (V8 start for node-host)
		g := sim.NewG(h.ctx, prog.Name, func(any) {
			code := 0
			func() {
				defer func() {
					e := recover()
					switch {
					case e == nil:
					case e == sched.ErrKilled:
						panic(e)
					default:
						if es, ok := e.(exitSentinel); ok {
							code = es.code
							return
						}
						panic(e)
					}
				}()
				code = prog.Main(h)
			}()
			res = HostResult{Code: code, Stdout: h.Stdout, Stderr: h.Stderr, Elapsed: h.ctx.Now() - start}
			done = true
		})
		sim.ResumeG(g, nil)
	})
	sim.RunUntil(func() bool { return done })
	return res
}

// charge bills one native system call plus optional per-byte work.
func (h *HostProc) charge(bytes int64) {
	h.sim.Charge(h.cost.DirectSyscallNs + bytes/8)
}

// abs resolves a process-relative path against the cwd, preserving
// ".." and trailing-slash semantics (fs.SyscallPath).
func (h *HostProc) abs(p string) string { return fs.SyscallPath(h.cwd, p) }

// Host file-system operations complete synchronously (host images are
// in-memory); completeErr guards that assumption.
func completeErr() (func(abi.Errno), func() abi.Errno) {
	out := abi.Errno(-9999)
	return func(e abi.Errno) { out = e }, func() abi.Errno {
		if out == -9999 {
			panic("rt: host fs operation did not complete synchronously")
		}
		return out
	}
}

func (h *HostProc) Getpid() int            { h.charge(0); return 1 }
func (h *HostProc) Getppid() int           { h.charge(0); return 0 }
func (h *HostProc) Args() []string         { return h.args }
func (h *HostProc) Environ() []string      { return h.env }
func (h *HostProc) Getenv(k string) string { return posix.Getenv(h.env, k) }
func (h *HostProc) Setenv(k, v string)     { h.env = posix.SetEnv(h.env, k, v) }

func (h *HostProc) Open(path string, flags int, mode uint32) (int, abi.Errno) {
	h.charge(0)
	ap := h.abs(path)
	var st abi.Stat
	var serr abi.Errno
	h.fsys.Stat(ap, func(s abi.Stat, e abi.Errno) { st, serr = s, e })
	if serr == abi.OK && st.IsDir() {
		if flags&abi.O_ACCMODE != abi.O_RDONLY {
			return -1, abi.EISDIR
		}
		fd := h.nextFd
		h.nextFd++
		h.fds[fd] = &hostFD{dir: ap, path: ap}
		return fd, abi.OK
	}
	var handle fs.FileHandle
	var oerr abi.Errno = -9999
	h.fsys.Open(ap, flags, mode, func(fh fs.FileHandle, e abi.Errno) { handle, oerr = fh, e })
	if oerr == -9999 {
		panic("rt: host open did not complete synchronously")
	}
	if oerr != abi.OK {
		return -1, oerr
	}
	fd := h.nextFd
	h.nextFd++
	h.fds[fd] = &hostFD{h: handle, flags: flags, path: ap}
	return fd, abi.OK
}

func (h *HostProc) Close(fd int) abi.Errno {
	h.charge(0)
	f, ok := h.fds[fd]
	if !ok {
		return abi.EBADF
	}
	delete(h.fds, fd)
	return f.release()
}

// release drops one descriptor's reference to f, closing the file with
// the last one.
func (f *hostFD) release() abi.Errno {
	if f.dups > 0 {
		f.dups--
		return abi.OK
	}
	if f.h != nil {
		set, get := completeErr()
		f.h.Close(set)
		return get()
	}
	return abi.OK
}

func (h *HostProc) Read(fd int, n int) ([]byte, abi.Errno) {
	f, ok := h.fds[fd]
	if !ok {
		return nil, abi.EBADF
	}
	if n < 0 {
		return nil, abi.EINVAL
	}
	if f.std == 3 {
		return nil, abi.OK // empty stdin
	}
	if f.h == nil {
		return nil, abi.EISDIR
	}
	var out []byte
	var err abi.Errno = -9999
	f.h.Pread(f.off, n, func(b []byte, e abi.Errno) { out, err = b, e })
	if err == -9999 {
		panic("rt: host read did not complete synchronously")
	}
	h.charge(int64(len(out)))
	f.off += int64(len(out))
	return out, err
}

func (h *HostProc) Write(fd int, b []byte) (int, abi.Errno) {
	f, ok := h.fds[fd]
	if !ok {
		return 0, abi.EBADF
	}
	h.charge(int64(len(b)))
	switch f.std {
	case 1:
		h.Stdout = append(h.Stdout, b...)
		return len(b), abi.OK
	case 2:
		h.Stderr = append(h.Stderr, b...)
		return len(b), abi.OK
	case 3:
		return 0, abi.EBADF
	}
	if f.h == nil {
		return 0, abi.EISDIR
	}
	var n int
	var err abi.Errno = -9999
	off := f.off
	if f.flags&abi.O_APPEND != 0 {
		var st abi.Stat
		f.h.Stat(func(s abi.Stat, e abi.Errno) { st = s })
		off = st.Size
	}
	f.h.Pwrite(off, b, func(m int, e abi.Errno) { n, err = m, e })
	if err == -9999 {
		panic("rt: host write did not complete synchronously")
	}
	f.off = off + int64(n)
	return n, err
}

func (h *HostProc) Pread(fd int, n int, off int64) ([]byte, abi.Errno) {
	f, ok := h.fds[fd]
	if !ok || f.h == nil {
		return nil, abi.EBADF
	}
	if n < 0 || off < 0 {
		return nil, abi.EINVAL
	}
	var out []byte
	var err abi.Errno
	f.h.Pread(off, n, func(b []byte, e abi.Errno) { out, err = b, e })
	h.charge(int64(len(out)))
	return out, err
}

func (h *HostProc) Pwrite(fd int, b []byte, off int64) (int, abi.Errno) {
	f, ok := h.fds[fd]
	if !ok || f.h == nil {
		return 0, abi.EBADF
	}
	if off < 0 {
		return 0, abi.EINVAL
	}
	var n int
	var err abi.Errno
	f.h.Pwrite(off, b, func(m int, e abi.Errno) { n, err = m, e })
	h.charge(int64(n))
	return n, err
}

// Readv on the host is one positional read of the summed length — a
// single (simulated) kernel crossing, like the real vectored call.
func (h *HostProc) Readv(fd int, lens []int) ([][]byte, abi.Errno) {
	total := 0
	for _, n := range lens {
		if n < 0 {
			return nil, abi.EINVAL
		}
		total += n
	}
	if total == 0 {
		return nil, abi.OK
	}
	b, err := h.Read(fd, total)
	if err != abi.OK || len(b) == 0 {
		return nil, err
	}
	return [][]byte{b}, abi.OK
}

// Writev writes the buffers back to back; host files never short-write.
func (h *HostProc) Writev(fd int, bufs [][]byte) (int64, abi.Errno) {
	var total int64
	for _, b := range bufs {
		n, err := h.Write(fd, b)
		total += int64(n)
		if err != abi.OK {
			if total > 0 {
				return total, abi.OK
			}
			return -1, err
		}
	}
	return total, abi.OK
}

func (h *HostProc) Seek(fd int, off int64, whence int) (int64, abi.Errno) {
	f, ok := h.fds[fd]
	if !ok {
		return 0, abi.EBADF
	}
	h.charge(0)
	switch whence {
	case abi.SEEK_SET:
	case abi.SEEK_CUR:
		off += f.off
	case abi.SEEK_END:
		st, err := h.Fstat(fd)
		if err != abi.OK {
			return 0, err
		}
		off += st.Size
	default:
		return 0, abi.EINVAL
	}
	if off < 0 {
		return 0, abi.EINVAL
	}
	f.off = off
	return off, abi.OK
}

func (h *HostProc) Ftruncate(fd int, size int64) abi.Errno {
	f, ok := h.fds[fd]
	if !ok || f.h == nil {
		return abi.EBADF
	}
	if size < 0 {
		return abi.EINVAL
	}
	set, get := completeErr()
	f.h.Truncate(size, set)
	return get()
}

func (h *HostProc) Fsync(fd int) abi.Errno {
	if _, ok := h.fds[fd]; !ok {
		return abi.EBADF
	}
	h.charge(0)
	return abi.OK // every write reached its backend before it returned
}

// Dup2 checks its arguments in the kernel's order, and closes the
// descriptor it replaces.
func (h *HostProc) Dup2(oldfd, newfd int) abi.Errno {
	if newfd < 0 || newfd >= abi.FdMax {
		return abi.EBADF
	}
	f, ok := h.fds[oldfd]
	if !ok {
		return abi.EBADF
	}
	if oldfd == newfd {
		return abi.OK
	}
	if replaced, open := h.fds[newfd]; open {
		replaced.release()
	}
	f.dups++
	h.fds[newfd] = f
	return abi.OK
}

func (h *HostProc) statPath(path string, follow bool) (abi.Stat, abi.Errno) {
	h.charge(0)
	var st abi.Stat
	var err abi.Errno = -9999
	cb := func(s abi.Stat, e abi.Errno) { st, err = s, e }
	if follow {
		h.fsys.Stat(h.abs(path), cb)
	} else {
		h.fsys.Lstat(h.abs(path), cb)
	}
	if err == -9999 {
		panic("rt: host stat did not complete synchronously")
	}
	return st, err
}

func (h *HostProc) Stat(path string) (abi.Stat, abi.Errno)  { return h.statPath(path, true) }
func (h *HostProc) Lstat(path string) (abi.Stat, abi.Errno) { return h.statPath(path, false) }

// StatBatch on the host is one direct syscall per path — the native
// baseline has no doorbell to amortize.
func (h *HostProc) StatBatch(paths []string, lstat bool) ([]abi.Stat, []abi.Errno) {
	sts := make([]abi.Stat, len(paths))
	errs := make([]abi.Errno, len(paths))
	for i, p := range paths {
		sts[i], errs[i] = h.statPath(p, !lstat)
	}
	return sts, errs
}

func (h *HostProc) Fstat(fd int) (abi.Stat, abi.Errno) {
	f, ok := h.fds[fd]
	if !ok {
		return abi.Stat{}, abi.EBADF
	}
	h.charge(0)
	if f.std != 0 {
		return abi.Stat{Mode: abi.S_IFCHR | 0o600}, abi.OK
	}
	if f.dir != "" {
		return h.Stat(f.dir)
	}
	var st abi.Stat
	var err abi.Errno
	f.h.Stat(func(s abi.Stat, e abi.Errno) { st, err = s, e })
	return st, err
}

func (h *HostProc) Access(path string, mode int) abi.Errno {
	_, err := h.Stat(path)
	return err
}

func (h *HostProc) Readlink(path string) (string, abi.Errno) {
	h.charge(0)
	var out string
	var err abi.Errno
	h.fsys.Readlink(h.abs(path), func(s string, e abi.Errno) { out, err = s, e })
	return out, err
}

func (h *HostProc) Utimes(path string, at, mt int64) abi.Errno {
	h.charge(0)
	set, get := completeErr()
	h.fsys.Utimes(h.abs(path), at, mt, set)
	return get()
}

func (h *HostProc) Mkdir(path string, mode uint32) abi.Errno {
	h.charge(0)
	set, get := completeErr()
	h.fsys.Mkdir(h.abs(path), mode, set)
	return get()
}

func (h *HostProc) Rmdir(path string) abi.Errno {
	h.charge(0)
	set, get := completeErr()
	h.fsys.Rmdir(h.abs(path), set)
	return get()
}

func (h *HostProc) Unlink(path string) abi.Errno {
	h.charge(0)
	set, get := completeErr()
	h.fsys.Unlink(h.abs(path), set)
	return get()
}

func (h *HostProc) Rename(oldp, newp string) abi.Errno {
	h.charge(0)
	set, get := completeErr()
	h.fsys.Rename(h.abs(oldp), h.abs(newp), set)
	return get()
}

func (h *HostProc) Symlink(target, link string) abi.Errno {
	h.charge(0)
	set, get := completeErr()
	h.fsys.Symlink(target, h.abs(link), set)
	return get()
}

// Getdents streams the listing in DirentChunk-sized pieces from the fd's
// cursor, matching the Browsix kernel's continuation contract.
func (h *HostProc) Getdents(fd int) ([]abi.Dirent, abi.Errno) {
	f, ok := h.fds[fd]
	if !ok {
		return nil, abi.EBADF
	}
	if f.dir == "" {
		return nil, abi.ENOTDIR
	}
	h.charge(0)
	var out []abi.Dirent
	var err abi.Errno
	h.fsys.Readdir(f.dir, func(es []abi.Dirent, e abi.Errno) { out, err = es, e })
	if err != abi.OK {
		return nil, err
	}
	off := int(f.off)
	if off >= len(out) {
		return nil, abi.OK
	}
	end := off + abi.DirentChunk
	if end > len(out) {
		end = len(out)
	}
	f.off = int64(end)
	return out[off:end], abi.OK
}

func (h *HostProc) Chdir(path string) abi.Errno {
	h.charge(0)
	var rp string
	var st abi.Stat
	var err abi.Errno = -9999
	h.fsys.Resolve(h.abs(path), func(p string, s abi.Stat, e abi.Errno) { rp, st, err = p, s, e })
	if err == -9999 {
		panic("rt: host chdir did not complete synchronously")
	}
	if err != abi.OK {
		return err
	}
	if !st.IsDir() {
		return abi.ENOTDIR
	}
	h.cwd = rp // walker-resolved canonical path
	return abi.OK
}

func (h *HostProc) Getcwd() (string, abi.Errno) { return h.cwd, abi.OK }

// Multi-process facilities are not part of the host baselines.
func (h *HostProc) Pipe() (int, int, abi.Errno) { return -1, -1, abi.ENOSYS }
func (h *HostProc) Spawn(string, []string, []string, []int) (int, abi.Errno) {
	return -1, abi.ENOSYS
}
func (h *HostProc) Fork(string, []byte) (int, abi.Errno)      { return -1, abi.ENOSYS }
func (h *HostProc) Exec(string, []string, []string) abi.Errno { return abi.ENOSYS }
func (h *HostProc) Wait4(int, int) (int, int, abi.Errno)      { return 0, 0, abi.ECHILD }
func (h *HostProc) Exit(code int)                             { panic(exitSentinel{code}) }
func (h *HostProc) Kill(int, int) abi.Errno                   { return abi.ESRCH }
func (h *HostProc) Signal(sig int, fn func(int)) abi.Errno    { return abi.OK }
func (h *HostProc) Socket() (int, abi.Errno)                  { return -1, abi.ENOSYS }
func (h *HostProc) Bind(int, int) abi.Errno                   { return abi.ENOSYS }
func (h *HostProc) Listen(int, int) abi.Errno                 { return abi.ENOSYS }
func (h *HostProc) Accept(int) (int, abi.Errno)               { return -1, abi.ENOSYS }
func (h *HostProc) Connect(int, int) abi.Errno                { return abi.ENOSYS }
func (h *HostProc) Getsockname(int) (int, abi.Errno)          { return -1, abi.ENOSYS }
func (h *HostProc) AcceptBatch(int, int) ([]int, abi.Errno)   { return nil, abi.ENOSYS }
func (h *HostProc) Poll([]abi.Pollfd, int64) (int, abi.Errno) { return -1, abi.ENOSYS }
func (h *HostProc) Setfl(int, int) abi.Errno                  { return abi.ENOSYS }

func (h *HostProc) CPU(ns int64)   { h.sim.Charge(int64(float64(ns) * h.cost.Mult)) }
func (h *HostProc) CPU64(ns int64) { h.sim.Charge(int64(float64(ns) * h.cost.Int64Mult)) }

func (h *HostProc) RuntimeName() string { return string(h.kind) }
