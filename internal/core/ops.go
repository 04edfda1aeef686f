package core

import "repro/internal/abi"

// The kernel's shared system-call table: one op per trap of abi.Syscalls
// whose row is carried by both transports. An op receives the typed
// arguments a codec decoded (syscall.go for the asynchronous transport,
// synccall.go for the heap) and completes exactly once with a typed
// result the same codec encodes — except exit, and exec on success,
// which never complete. Ops must copy what their continuations need out
// of a into locals: a continuation capturing a itself would move every
// call's arguments to the heap.

// callArgs is a decoded call: the typed arguments plus the descriptor an
// ArgFd argument named.
type callArgs struct {
	abi.Args
	d *Desc
}

type sysOp func(k *Kernel, t *Task, a callArgs, done func(abi.Result))

func res(ret int64, err abi.Errno) abi.Result { return abi.Result{Ret: ret, Err: err} }

// errDone adapts done to the errno-only continuations of fs calls.
func errDone(done func(abi.Result)) func(abi.Errno) {
	return func(err abi.Errno) { done(abi.Result{Err: err}) }
}

// statDone adapts done to stat-returning continuations.
func statDone(done func(abi.Result)) func(abi.Stat, abi.Errno) {
	return func(st abi.Stat, err abi.Errno) { done(abi.Result{Err: err, Stat: st}) }
}

// bytesDone adapts done to payload-returning continuations.
func bytesDone(done func(abi.Result)) func([]byte, abi.Errno) {
	return func(data []byte, err abi.Errno) {
		done(abi.Result{Ret: int64(len(data)), Err: err, Data: data})
	}
}

// countDone adapts done to count-returning continuations.
func countDone(done func(abi.Result)) func(int, abi.Errno) {
	return func(n int, err abi.Errno) { done(res(int64(n), err)) }
}

// sockOf returns the socket a descriptor holds.
func sockOf(d *Desc) (*Socket, abi.Errno) {
	if s, ok := d.file.(*Socket); ok {
		return s, abi.OK
	}
	return nil, abi.ENOTSOCK
}

// sysOps is filled by init: ops reach the spawn path, which reaches the
// codecs that index this table.
var sysOps [abi.SYS_max]sysOp

func init() {
	sysOps = [abi.SYS_max]sysOp{
		abi.SYS_open: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.doOpen(t, a.Str[0], int(a.Int[0]), uint32(a.Int[1]), countDone(done))
		},
		abi.SYS_close: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			t.closeFd(int(a.Int[0]), errDone(done))
		},
		abi.SYS_read: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			a.d.file.Read(a.d, int(a.Cap), bytesDone(done))
		},
		abi.SYS_write: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			// Decoded buffers are the kernel's own copies, so ownership
			// can transfer to the file (zero-copy into pipes).
			writeMoved(a.d, a.Bytes, countDone(done))
		},
		abi.SYS_readv: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			total := 0
			for _, n := range a.Lens {
				total += n
			}
			if total == 0 {
				done(abi.Result{})
				return
			}
			readGather(a.d, total, func(segs [][]byte, err abi.Errno) {
				if err != abi.OK {
					done(res(-1, err))
					return
				}
				var n int64
				for _, s := range segs {
					n += int64(len(s))
				}
				done(abi.Result{Ret: n, Segs: segs})
			})
		},
		abi.SYS_writev: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			writevBufs(a.d, a.Bufs, func(n int64, err abi.Errno) { done(res(n, err)) })
		},
		abi.SYS_pread: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			if a.Int[1] < 0 {
				done(res(-1, abi.EINVAL))
				return
			}
			a.d.file.Pread(a.Int[1], int(a.Cap), bytesDone(done))
		},
		abi.SYS_pwrite: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			if a.Int[1] < 0 {
				done(res(-1, abi.EINVAL))
				return
			}
			a.d.file.Pwrite(a.Int[1], a.Bytes, countDone(done))
		},
		abi.SYS_llseek: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			a.d.file.Seek(a.d, a.Int[1], int(a.Int[2]), func(off int64, err abi.Errno) { done(res(off, err)) })
		},
		abi.SYS_ftruncate: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			if a.Int[1] < 0 {
				done(res(-1, abi.EINVAL))
				return
			}
			a.d.file.Truncate(a.Int[1], errDone(done))
		},
		abi.SYS_fsync: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			syncFile(a.d.file, errDone(done))
		},
		abi.SYS_fstat: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			a.d.file.Stat(statDone(done))
		},
		abi.SYS_stat: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.FS.Stat(t.abs(a.Str[0]), statDone(done))
		},
		abi.SYS_lstat: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.FS.Lstat(t.abs(a.Str[0]), statDone(done))
		},
		abi.SYS_access: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.FS.Access(t.abs(a.Str[0]), int(a.Int[0]), errDone(done))
		},
		abi.SYS_readlink: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.FS.Readlink(t.abs(a.Str[0]), func(target string, err abi.Errno) {
				done(abi.Result{Ret: int64(len(target)), Err: err, Str: target})
			})
		},
		abi.SYS_utimes: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.FS.Utimes(t.abs(a.Str[0]), a.Int[0], a.Int[1], errDone(done))
		},
		abi.SYS_unlink: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.FS.Unlink(t.abs(a.Str[0]), errDone(done))
		},
		abi.SYS_rmdir: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.FS.Rmdir(t.abs(a.Str[0]), errDone(done))
		},
		abi.SYS_mkdir: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.FS.Mkdir(t.abs(a.Str[0]), uint32(a.Int[0]), errDone(done))
		},
		abi.SYS_rename: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.FS.Rename(t.abs(a.Str[0]), t.abs(a.Str[1]), errDone(done))
		},
		abi.SYS_symlink: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.FS.Symlink(a.Str[0], t.abs(a.Str[1]), errDone(done))
		},
		abi.SYS_getdents: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			a.d.file.Getdents(a.d, func(ents []abi.Dirent, err abi.Errno) {
				done(abi.Result{Ret: int64(len(ents)), Err: err, Ents: ents})
			})
		},
		abi.SYS_dup2: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			done(res(a.Int[1], k.doDup2(t, int(a.Int[0]), int(a.Int[1]))))
		},
		abi.SYS_pipe2: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			rfd, wfd := k.doPipe2(t)
			done(abi.Result{Aux: [2]int64{int64(rfd), int64(wfd)}})
		},
		abi.SYS_spawn: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.doSpawn(t, a.Str[0], a.Strs[0], a.Strs[1], a.Ints, countDone(done))
		},
		abi.SYS_exec: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			// Only failures complete; on success the old image is gone.
			k.doExec(t, a.Str[0], a.Strs[0], a.Strs[1], func(err abi.Errno) { done(res(-1, err)) })
		},
		abi.SYS_wait4: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.doWait4(t, int(a.Int[0]), int(a.Int[1]), func(pid, status int, err abi.Errno) {
				done(abi.Result{Ret: int64(pid), Err: err, Aux: [2]int64{int64(status)}})
			})
		},
		abi.SYS_exit: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.doExit(t, int(a.Int[0]))
		},
		abi.SYS_kill: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			done(res(0, k.doKill(int(a.Int[0]), int(a.Int[1]))))
		},
		abi.SYS_signal: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			done(res(0, k.doSignalAction(t, int(a.Int[0]), int(a.Int[1]))))
		},
		abi.SYS_getpid: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			done(res(int64(t.Pid), abi.OK))
		},
		abi.SYS_getppid: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			done(res(int64(t.ParentPid), abi.OK))
		},
		abi.SYS_getcwd: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			if a.Cap >= 0 && int64(len(t.cwd)) > a.Cap {
				done(res(-1, abi.ERANGE))
				return
			}
			done(abi.Result{Ret: int64(len(t.cwd)), Str: t.cwd})
		},
		abi.SYS_chdir: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			k.doChdir(t, a.Str[0], errDone(done))
		},
		abi.SYS_socket: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			done(res(int64(t.installFd(NewDesc(k.NewSocket(), abi.O_RDWR, "socket:"))), abi.OK))
		},
		abi.SYS_bind: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			s, err := sockOf(a.d)
			if err != abi.OK {
				done(res(-1, err))
				return
			}
			done(res(0, k.BindSocket(s, int(a.Int[1]))))
		},
		abi.SYS_listen: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			s, err := sockOf(a.d)
			if err != abi.OK {
				done(res(-1, err))
				return
			}
			done(res(0, k.ListenSocket(s, int(a.Int[1]))))
		},
		abi.SYS_accept: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			// accept4-shaped: O_NONBLOCK in the flags (or on the
			// listener descriptor) makes the accept non-blocking, and
			// the new connection's descriptor inherits the flag — so an
			// event loop drains a whole backlog without a blocking edge.
			s, err := sockOf(a.d)
			if err != abi.OK {
				done(res(-1, err))
				return
			}
			flags := int(a.Int[1])
			connFlags := abi.O_RDWR | flags&abi.O_NONBLOCK
			nonblock := a.d.flags&abi.O_NONBLOCK != 0 || flags&abi.O_NONBLOCK != 0
			k.AcceptSocket(s, nonblock, func(conn *Socket, err abi.Errno) {
				if err != abi.OK {
					done(res(-1, err))
					return
				}
				done(res(int64(t.installFd(NewDesc(conn, connFlags, "socket:conn"))), abi.OK))
			})
		},
		abi.SYS_connect: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			s, err := sockOf(a.d)
			if err != abi.OK {
				done(res(-1, err))
				return
			}
			k.ConnectSocket(s, int(a.Int[1]), errDone(done))
		},
		abi.SYS_getsockname: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			s, err := sockOf(a.d)
			if err != abi.OK {
				done(res(-1, err))
				return
			}
			done(res(int64(s.port), abi.OK))
		},
		abi.SYS_poll: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			// Timeout in ns: -1 blocks, 0 probes. Revents fill the
			// decoded records in place.
			fds := a.Pollfds
			k.doPoll(t, fds, a.Int[0], func(n int, err abi.Errno) {
				done(abi.Result{Ret: int64(n), Err: err, Pollfds: fds})
			})
		},
		abi.SYS_setfl: func(k *Kernel, t *Task, a callArgs, done func(abi.Result)) {
			// fcntl F_SETFL subset: only O_NONBLOCK is honored.
			a.d.flags = a.d.flags&^abi.O_NONBLOCK | int(a.Int[1])&abi.O_NONBLOCK
			done(res(0, abi.OK))
		},
	}
}
