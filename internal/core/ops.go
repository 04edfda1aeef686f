package core

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/browser"
)

// The kernel's shared system-call table: one op per trap of abi.Syscalls.
// An op receives the typed arguments a codec decoded (syscall.go for the
// asynchronous transport, synccall.go for the heap, which serves only the
// rows both transports carry) and the call's continuation record, and
// completes the call exactly once with a typed result the same codec
// encodes — except exit, and exec on success, which never complete. A
// second completion of one call panics naming the trap.
//
// The record (callCont) comes from a free list on the task and goes
// back to it when the call completes, so it may serve a later call from
// then on: an op must not touch it after completing. Its typed adapters
// (count, bytes, segs, errno, stat, ret, poll) are bound once per
// record, so an op hands them to files and the fs without building a
// closure per call. Ops must copy what their own closures need out of a
// into locals: a closure capturing a itself would move every call's
// arguments to the heap.

// callArgs is a decoded call: the typed arguments plus the descriptor an
// ArgFd argument named.
type callArgs struct {
	abi.Args
	d *Desc
}

type sysOp func(k *Kernel, t *Task, a callArgs, c *callCont)

func res(ret int64, err abi.Errno) abi.Result { return abi.Result{Ret: ret, Err: err} }

// errRes is the result of a call that returns no value: 0, or -1 and
// err.
func errRes(err abi.Errno) abi.Result {
	if err != abi.OK {
		return res(-1, err)
	}
	return abi.Result{}
}

// callCont is one call's continuation record: where its result goes,
// and the adapters that turn each kind of kernel callback into that
// result.
type callCont struct {
	t    *Task
	trap int
	live bool // taken for a call that has not completed

	// The asynchronous codec replies to id over w.
	w  *browser.Worker
	id int64

	// The heap codec encodes the result at out and hands the frame's
	// completion to ring. reg is the task's ring when the call was
	// decoded: every registration and every release replaces t.ring
	// (and t.heap with it), so a call whose reg is no longer t.ring
	// belongs to a heap its process no longer holds.
	ring func(seq uint32, ret int64, err abi.Errno)
	reg  *taskRing
	seq  uint32
	out  heapOut
	d    *Desc

	// A file read gathers into lens and lands through fileSegs, which
	// advances d's offset by what was read (readv).
	lens [1]int
	// A one-buffer read completing a readv lands in seg (oneSeg).
	seg [1][]byte

	pollfds []abi.Pollfd // poll's records, answered with revents filled in

	// Adapters, bound once in newCont. Completing with bytes hands
	// the payload over, and poll hands over pollfds: an asynchronous
	// reply moves both to the reader uncopied (abi.Result).
	count    func(int, abi.Errno)      // ret n
	ret      func(int64, abi.Errno)    // ret n (offsets, writev totals)
	bytes    func([]byte, abi.Errno)   // a payload the caller gives up
	segs     func([][]byte, abi.Errno) // a gathered payload
	fileSegs func([][]byte, abi.Errno) // a gathered file payload at d's offset
	oneSeg   func([]byte, abi.Errno)   // a payload, as a gathered one
	errno    func(abi.Errno)           // no value
	stat     func(abi.Stat, abi.Errno) // a stat record
	poll     func(int, abi.Errno)      // ready count, revents in pollfds, given up
}

func newCont(t *Task) *callCont {
	c := &callCont{t: t}
	c.count = func(n int, err abi.Errno) { c.done(res(int64(n), err)) }
	c.ret = func(n int64, err abi.Errno) { c.done(res(n, err)) }
	c.bytes = func(data []byte, err abi.Errno) {
		c.done(abi.Result{Ret: int64(len(data)), Err: err, Data: data})
	}
	c.segs = func(segs [][]byte, err abi.Errno) {
		if err != abi.OK {
			c.done(res(-1, err))
			return
		}
		var n int64
		for _, s := range segs {
			n += int64(len(s))
		}
		c.done(abi.Result{Ret: n, Segs: segs})
	}
	c.fileSegs = func(segs [][]byte, err abi.Errno) {
		if err == abi.OK {
			for _, s := range segs {
				c.d.off += int64(len(s))
			}
		}
		c.segs(segs, err)
	}
	c.oneSeg = func(data []byte, err abi.Errno) {
		if err != abi.OK || len(data) == 0 {
			c.segs(nil, err)
			return
		}
		c.seg[0] = data
		c.segs(c.seg[:], abi.OK)
	}
	c.errno = func(err abi.Errno) { c.done(abi.Result{Err: err}) }
	c.stat = func(st abi.Stat, err abi.Errno) { c.done(abi.Result{Err: err, Stat: st}) }
	c.poll = func(n int, err abi.Errno) {
		c.done(abi.Result{Ret: int64(n), Err: err, Pollfds: c.pollfds})
	}
	return c
}

// takeCont takes a continuation record for a call to trap off t's free
// list, making one when the list is empty.
func (t *Task) takeCont(trap int) *callCont {
	c := t.conts.Take()
	if c == nil {
		c = newCont(t)
	}
	c.trap, c.live = trap, true
	return c
}

// done completes the call: the heap codec encodes r into the caller's
// heap and hands the frame its completion, the asynchronous codec posts
// a reply frame. The record then returns to the free list.
func (c *callCont) done(r abi.Result) {
	if !c.live {
		panic(fmt.Sprintf("core: %s completed twice", abi.SyscallName(c.trap)))
	}
	c.live = false
	t := c.t
	switch {
	case c.orphaned():
		// The process exited or exec'd while the call was parked: its
		// heap may already serve another process, so nothing is written
		// or posted.
	case c.ring == nil:
		t.postReply(c.w, c.id, c.trap, r)
	default:
		ret, err := t.heapResult(abi.Syscalls[c.trap].Ret, c.out, c.d, r)
		c.ring(c.seq, ret, err)
	}
	c.w, c.ring, c.reg, c.out, c.d, c.pollfds, c.seg[0] = nil, nil, nil, heapOut{}, nil, nil, nil
	t.conts.Put(c)
}

// orphaned reports whether the process that made the call has exited or
// exec'd since: its worker is no longer the task's, or (a heap call) the
// ring it was decoded against is.
func (c *callCont) orphaned() bool {
	if c.ring == nil {
		return c.t.worker != c.w || c.w.Terminated()
	}
	return c.reg != c.t.ring
}

// readv gathers up to total bytes from f at d's offset into the
// record's one-element lengths list, completing through fileSegs: a
// warm file read builds neither a list nor a closure.
func (c *callCont) readv(f vectoredReader, d *Desc, total int) {
	c.d, c.lens[0] = d, total
	f.Preadv(d.off, c.lens[:], c.fileSegs)
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
		abi.SYS_open: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.doOpen(t, a.Str[0], int(a.Int[0]), uint32(a.Int[1]), c.count)
		},
		abi.SYS_close: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			t.closeFd(int(a.Int[0]), c.errno)
		},
		abi.SYS_read: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			// Files gather: a warm page-cache hit comes back as views of
			// the cached pages, which the codec copies once into the
			// heap or reply before the completion returns. Pipes and
			// sockets read one buffer they own, which a reply moves.
			switch f := a.d.file.(type) {
			case vectoredReader:
				c.readv(f, a.d, int(a.Cap))
			case callReader:
				f.readCall(a.d, c, int(a.Cap), c.bytes)
			default:
				a.d.file.Read(a.d, int(a.Cap), c.bytes)
			}
		},
		abi.SYS_write: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			// Decoded buffers are the kernel's own copies, so ownership
			// can transfer to the file (zero-copy into pipes).
			writeMoved(a.d, a.Bytes, c.count)
		},
		abi.SYS_readv: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			total := 0
			for _, n := range a.Ints {
				total += n
			}
			if total == 0 {
				c.done(abi.Result{})
				return
			}
			readGather(a.d, total, c)
		},
		abi.SYS_writev: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			writevBufs(a.d, a.Bufs, c.ret)
		},
		abi.SYS_pread: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			if a.Int[1] < 0 {
				c.done(res(-1, abi.EINVAL))
				return
			}
			a.d.file.Pread(a.Int[1], int(a.Cap), c.bytes)
		},
		abi.SYS_pwrite: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			if a.Int[1] < 0 {
				c.done(res(-1, abi.EINVAL))
				return
			}
			a.d.file.Pwrite(a.Int[1], a.Bytes, c.count)
		},
		abi.SYS_llseek: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			a.d.file.Seek(a.d, a.Int[1], int(a.Int[2]), c.ret)
		},
		abi.SYS_ftruncate: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			if a.Int[1] < 0 {
				c.done(res(-1, abi.EINVAL))
				return
			}
			a.d.file.Truncate(a.Int[1], c.errno)
		},
		abi.SYS_fsync: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			// Every write reaches its backend before it returns, so
			// nothing is left to flush; the table still checks the fd.
			c.done(res(0, abi.OK))
		},
		abi.SYS_fstat: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			a.d.file.Stat(c.stat)
		},
		abi.SYS_stat: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.FS.Stat(t.abs(a.Str[0]), c.stat)
		},
		abi.SYS_lstat: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.FS.Lstat(t.abs(a.Str[0]), c.stat)
		},
		abi.SYS_access: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.FS.Access(t.abs(a.Str[0]), int(a.Int[0]), c.errno)
		},
		abi.SYS_readlink: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.FS.Readlink(t.abs(a.Str[0]), func(target string, err abi.Errno) {
				c.done(abi.Result{Ret: int64(len(target)), Err: err, Str: target})
			})
		},
		abi.SYS_utimes: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.FS.Utimes(t.abs(a.Str[0]), a.Int[0], a.Int[1], c.errno)
		},
		abi.SYS_unlink: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.FS.Unlink(t.abs(a.Str[0]), c.errno)
		},
		abi.SYS_rmdir: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.FS.Rmdir(t.abs(a.Str[0]), c.errno)
		},
		abi.SYS_mkdir: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.FS.Mkdir(t.abs(a.Str[0]), uint32(a.Int[0]), c.errno)
		},
		abi.SYS_rename: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.FS.Rename(t.abs(a.Str[0]), t.abs(a.Str[1]), c.errno)
		},
		abi.SYS_symlink: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.FS.Symlink(a.Str[0], t.abs(a.Str[1]), c.errno)
		},
		abi.SYS_getdents: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			a.d.file.Getdents(a.d, func(ents []abi.Dirent, err abi.Errno) {
				c.done(abi.Result{Ret: int64(len(ents)), Err: err, Ents: ents})
			})
		},
		abi.SYS_dup2: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			c.done(res(a.Int[1], k.doDup2(t, int(a.Int[0]), int(a.Int[1]))))
		},
		abi.SYS_pipe2: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			rfd, wfd := k.doPipe2(t)
			c.done(abi.Result{Aux: [2]int64{int64(rfd), int64(wfd)}})
		},
		abi.SYS_spawn: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.doSpawn(t, a.Str[0], a.Strs[0], a.Strs[1], a.Ints, c.count)
		},
		abi.SYS_fork: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.doFork(t, &ForkImage{Mem: a.Bytes, Label: a.Str[0]}, c.count)
		},
		abi.SYS_exec: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			// Only failures complete; on success the old image is gone.
			k.doExec(t, a.Str[0], a.Strs[0], a.Strs[1], func(err abi.Errno) { c.done(res(-1, err)) })
		},
		abi.SYS_wait4: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.doWait4(t, int(a.Int[0]), int(a.Int[1]), func(pid, status int, err abi.Errno) {
				c.done(abi.Result{Ret: int64(pid), Err: err, Aux: [2]int64{int64(status)}})
			})
		},
		abi.SYS_exit: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.doExit(t, int(a.Int[0]))
		},
		abi.SYS_kill: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			c.done(res(0, k.doKill(int(a.Int[0]), int(a.Int[1]))))
		},
		abi.SYS_signal: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			c.done(res(0, k.doSignalAction(t, int(a.Int[0]), int(a.Int[1]))))
		},
		abi.SYS_getpid: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			c.done(res(int64(t.Pid), abi.OK))
		},
		abi.SYS_getppid: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			c.done(res(int64(t.ParentPid), abi.OK))
		},
		abi.SYS_getcwd: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			if a.Cap >= 0 && int64(len(t.cwd)) > a.Cap {
				c.done(res(-1, abi.ERANGE))
				return
			}
			c.done(abi.Result{Ret: int64(len(t.cwd)), Str: t.cwd})
		},
		abi.SYS_chdir: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			k.doChdir(t, a.Str[0], c.errno)
		},
		abi.SYS_socket: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			c.done(res(int64(t.installFd(NewDesc(k.NewSocket(), abi.O_RDWR, "socket:"))), abi.OK))
		},
		abi.SYS_bind: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			s, err := sockOf(a.d)
			if err != abi.OK {
				c.done(res(-1, err))
				return
			}
			c.done(res(0, k.BindSocket(s, int(a.Int[1]))))
		},
		abi.SYS_listen: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			s, err := sockOf(a.d)
			if err != abi.OK {
				c.done(res(-1, err))
				return
			}
			c.done(res(0, k.ListenSocket(s, int(a.Int[1]))))
		},
		abi.SYS_accept: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			// accept4-shaped: O_NONBLOCK in the flags (or on the
			// listener descriptor) makes the accept non-blocking, and
			// the new connection's descriptor inherits the flag — so an
			// event loop drains a whole backlog without a blocking edge.
			s, err := sockOf(a.d)
			if err != abi.OK {
				c.done(res(-1, err))
				return
			}
			flags := int(a.Int[1])
			connFlags := abi.O_RDWR | flags&abi.O_NONBLOCK
			nonblock := a.d.flags&abi.O_NONBLOCK != 0 || flags&abi.O_NONBLOCK != 0
			k.AcceptSocket(s, nonblock, func(conn *Socket, err abi.Errno) {
				if err != abi.OK {
					c.done(res(-1, err))
					return
				}
				c.done(res(int64(t.installFd(NewDesc(conn, connFlags, "socket:conn"))), abi.OK))
			})
		},
		abi.SYS_connect: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			s, err := sockOf(a.d)
			if err != abi.OK {
				c.done(res(-1, err))
				return
			}
			k.ConnectSocket(s, int(a.Int[1]), c.errno)
		},
		abi.SYS_getsockname: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			s, err := sockOf(a.d)
			if err != abi.OK {
				c.done(res(-1, err))
				return
			}
			c.done(res(int64(s.port), abi.OK))
		},
		abi.SYS_poll: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			// Timeout in ns: -1 blocks, 0 probes. Revents fill the
			// decoded records in place.
			c.pollfds = a.Pollfds
			k.doPoll(t, a.Pollfds, a.Int[0], c.poll)
		},
		abi.SYS_setfl: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			// fcntl F_SETFL subset: only O_NONBLOCK is honored.
			a.d.flags = a.d.flags&^abi.O_NONBLOCK | int(a.Int[1])&abi.O_NONBLOCK
			c.done(res(0, abi.OK))
		},
		abi.SYS_personality: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			c.done(errRes(t.setPersonality(a.Heap)))
		},
		abi.SYS_snapcap: func(k *Kernel, t *Task, a callArgs, c *callCont) {
			c.done(errRes(k.doSnapcap(t)))
		},
	}
}
