package core

import (
	"math"
	"slices"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/fs"
)

// This file is the kernel's system-call entry point and its asynchronous
// codec (§3.2 of the paper): every call a process posts arrives as a
// typed abi.CallFrame, whose arguments are checked and handed to the
// shared op table (ops.go), and is answered with an abi.ReplyFrame. The
// synchronous transport's codec is in synccall.go.

// onWorkerMessage handles every message a process sends the kernel.
func (k *Kernel) onWorkerMessage(t *Task, w *browser.Worker, v browser.Value) {
	if t.state == taskZombie || t.worker != w {
		return // stale message from a replaced or exited image
	}
	switch f := v.(type) {
	case *abi.CallFrame:
		k.AsyncSyscalls.Add(1)
		k.Sys.Sim.Charge(k.CPU.SyscallNs)
		k.SyscallCount[abi.SyscallName(f.Trap)]++
		k.frameCall(t, w, f)
	case abi.RingBell:
		// Any number of call frames may be queued behind this one
		// message. Per-call kernel CPU is charged inside the drain; the
		// doorbell itself already paid the postMessage cost.
		k.drainRing(t)
	}
}

// abs resolves a process-relative path against the task's cwd,
// preserving ".." and trailing-slash semantics (fs.SyscallPath).
func (t *Task) abs(p string) string { return fs.SyscallPath(t.cwd, p) }

// ---------------------------------------------------------------------------
// Transport-independent operations.
// ---------------------------------------------------------------------------

func (k *Kernel) doOpen(t *Task, p string, flags int, mode uint32, cb func(int, abi.Errno)) {
	ap := t.abs(p)
	k.FS.Stat(ap, func(st abi.Stat, serr abi.Errno) {
		if serr == abi.OK && st.IsDir() {
			if flags&abi.O_ACCMODE != abi.O_RDONLY {
				cb(-1, abi.EISDIR)
				return
			}
			cb(t.installFd(NewDesc(&dirFile{fs: k.FS, path: ap}, flags, ap)), abi.OK)
			return
		}
		if flags&abi.O_DIRECTORY != 0 {
			if serr != abi.OK {
				cb(-1, serr)
			} else {
				cb(-1, abi.ENOTDIR)
			}
			return
		}
		k.FS.Open(ap, flags, mode, func(h fs.FileHandle, err abi.Errno) {
			if err != abi.OK {
				cb(-1, err)
				return
			}
			cb(t.installFd(NewDesc(newFSFile(h, flags), flags, ap)), abi.OK)
		})
	})
}

func (k *Kernel) doPipe2(t *Task) (int, int) {
	r, w := NewPipePair()
	// SIGPIPE goes to the writing process, as on Unix.
	w.(*pipeEnd).sigPipe = func() { k.signalTask(t, abi.SIGPIPE) }
	r.(*pipeEnd).p.onState = k.kick
	rfd := t.installFd(NewDesc(r, abi.O_RDONLY, r.(*pipeEnd).String()))
	wfd := t.installFd(NewDesc(w, abi.O_WRONLY, w.(*pipeEnd).String()))
	return rfd, wfd
}

func (k *Kernel) doDup2(t *Task, oldfd, newfd int) abi.Errno {
	if newfd < 0 || newfd >= abi.FdMax {
		return abi.EBADF
	}
	d, err := t.lookFd(oldfd)
	if err != abi.OK {
		return err
	}
	if oldfd == newfd {
		return abi.OK
	}
	t.closeFd(newfd, func(abi.Errno) {}) // EBADF when newfd is free
	d.Ref()
	t.setFd(newfd, d)
	return abi.OK
}

func (k *Kernel) doChdir(t *Task, p string, cb func(abi.Errno)) {
	// Store the walker-resolved canonical path, not a lexical cleaning:
	// with symlinks in play the two can name different directories.
	k.FS.Resolve(t.abs(p), func(rp string, st abi.Stat, err abi.Errno) {
		if err != abi.OK {
			cb(err)
			return
		}
		if !st.IsDir() {
			cb(abi.ENOTDIR)
			return
		}
		t.cwd = rp
		cb(abi.OK)
	})
}

// ---------------------------------------------------------------------------
// Asynchronous codec.
// ---------------------------------------------------------------------------

// postReply answers asynchronous call id from w with r, in a reply
// frame from t's pool.
func (t *Task) postReply(w *browser.Worker, id int64, trap int, r abi.Result) {
	f := t.replies.Take()
	f.ID, f.Trap, f.Res = id, trap, r
	w.PostMessage(f)
}

// frameCall checks a call frame's arguments, runs the trap's op, and
// replies with its result. A trap outside the table or without an op
// gets ENOSYS.
func (k *Kernel) frameCall(t *Task, w *browser.Worker, f *abi.CallFrame) {
	id, trap := f.ID, f.Trap
	var op sysOp
	if trap > 0 && trap < abi.SYS_max {
		op = sysOps[trap]
	}
	if op == nil {
		t.postReply(w, id, 0, res(-1, abi.ENOSYS))
		return
	}
	a, err := t.frameArgs(&abi.Syscalls[trap], &f.Args)
	if err != abi.OK {
		t.postReply(w, id, 0, res(-1, err))
		return
	}
	c := t.takeCont(trap)
	c.w, c.id = w, id
	op(k, t, a, c)
}

// frameArgs checks a frame's arguments in row order: an ArgFd is looked
// up where it stands, result capacities and list lengths are bounded as
// the heap codec bounds them, and empty write buffers are dropped.
func (t *Task) frameArgs(row *abi.Syscall, fa *abi.Args) (a callArgs, err abi.Errno) {
	a.Args = *fa
	ni := 0
	for _, shape := range row.Args {
		switch shape {
		case abi.ArgInt, abi.ArgOpt:
			ni++
		case abi.ArgFd:
			if a.d, err = t.lookFd(int(a.Int[ni])); err != abi.OK {
				return a, err
			}
			ni++
		case abi.ArgOut:
			if a.Cap < 0 {
				return a, abi.EINVAL
			}
		case abi.ArgOutBuf:
			a.Cap = -1
		case abi.ArgBufs:
			if len(a.Bufs) > abi.IovMax {
				return a, abi.EINVAL
			}
			a.Bufs = slices.DeleteFunc(a.Bufs, func(b []byte) bool { return len(b) == 0 })
		case abi.ArgLens:
			// As readv(2): EINVAL past IOV_MAX, or when a length is
			// negative or the total overflows.
			if len(a.Ints) > abi.IovMax {
				return a, abi.EINVAL
			}
			total := 0
			for _, n := range a.Ints {
				if n < 0 || n > math.MaxInt-total {
					return a, abi.EINVAL
				}
				total += n
			}
		case abi.ArgPollfds:
			if len(a.Pollfds) > abi.PollfdMax {
				return a, abi.EINVAL
			}
		}
	}
	return a, abi.OK
}

// SyscallTable returns the implemented system calls grouped by Figure 3
// class, derived from the syscall table's class column, with the
// paper's readdir alias listed next to getdents.
func SyscallTable() map[string][]string {
	out := map[string][]string{}
	for trap, row := range abi.Syscalls {
		if row.Class == "" {
			continue
		}
		if trap == abi.SYS_getdents {
			out[row.Class] = append(out[row.Class], abi.ReaddirAlias)
		}
		out[row.Class] = append(out[row.Class], row.Name)
	}
	return out
}
