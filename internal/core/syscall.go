package core

import (
	"slices"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/fs"
)

// This file is the kernel's system-call entry point and its asynchronous
// codec (§3.2 of the paper): table-driven calls arrive as typed
// abi.CallFrames, whose arguments are checked and handed to the shared op
// table (ops.go), and are answered with abi.ReplyFrames. The synchronous
// transport's codec is in synccall.go.

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
	case map[string]browser.Value:
		// The once-per-process calls outside the table still travel as
		// plain objects.
		if browser.GetString(f, "type") != "syscall" {
			return
		}
		k.AsyncSyscalls.Add(1)
		k.Sys.Sim.Charge(k.CPU.SyscallNs)
		name := browser.GetString(f, "name")
		k.SyscallCount[name]++
		id := browser.GetInt(f, "id")
		reply := func(ret ...browser.Value) {
			k.postReply(t, w, map[string]browser.Value{"type": "reply", "id": id, "ret": ret})
		}
		if local := asyncLocal[name]; local != nil {
			local(k, t, browser.GetArray(f, "args"), reply)
			return
		}
		reply(int64(-1), errv(abi.ENOSYS))
	}
}

// abs resolves a process-relative path against the task's cwd,
// preserving trailing-slash semantics (fs.Abs).
func (t *Task) abs(p string) string { return fs.Abs(t.cwd, p) }

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
	r.(*pipeEnd).p.onState = k.pollKick
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

func errv(err abi.Errno) int64 { return int64(err) }

// postReply delivers an asynchronous call's reply, unless the calling
// image is gone.
func (k *Kernel) postReply(t *Task, w *browser.Worker, reply browser.Value) {
	if t.worker != w || w.Terminated() {
		return
	}
	w.PostMessage(reply)
}

// frameCall checks a call frame's arguments, runs the trap's op, and
// replies with its result. A trap outside the table, carried by one
// transport only, or without an op gets ENOSYS.
func (k *Kernel) frameCall(t *Task, w *browser.Worker, f *abi.CallFrame) {
	id, trap := f.ID, f.Trap
	var op sysOp
	if trap > 0 && trap < abi.SYS_max && abi.Syscalls[trap].Transport == abi.Both {
		op = sysOps[trap]
	}
	if op == nil {
		k.postReply(t, w, &abi.ReplyFrame{ID: id, Res: res(-1, abi.ENOSYS)})
		return
	}
	a, err := t.frameArgs(&abi.Syscalls[trap], &f.Args)
	if err != abi.OK {
		k.postReply(t, w, &abi.ReplyFrame{ID: id, Res: res(-1, err)})
		return
	}
	op(k, t, a, func(r abi.Result) { k.postReply(t, w, &abi.ReplyFrame{ID: id, Trap: trap, Res: r}) })
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
			if len(a.Lens) > abi.IovMax || slices.ContainsFunc(a.Lens, func(n int) bool { return n < 0 }) {
				return a, abi.EINVAL
			}
		case abi.ArgPollfds:
			if len(a.Pollfds) > abi.PollfdMax {
				return a, abi.EINVAL
			}
		}
	}
	return a, abi.OK
}

// asyncLocalOp is a call only the asynchronous transport carries: the
// registrations that set up the other transports, and fork.
type asyncLocalOp func(k *Kernel, t *Task, a []browser.Value, reply func(...browser.Value))

// asyncLocal is filled by init: fork reaches the spawn path, which
// reaches the codec that indexes this table.
var asyncLocal map[string]asyncLocalOp

func init() {
	asyncLocal = map[string]asyncLocalOp{
		// Sync-syscall registration (§3.2): heap, return-value offset
		// (not read: results travel in the reply ring) and wake offset.
		"personality": func(k *Kernel, t *Task, a []browser.Value, reply func(...browser.Value)) {
			if err := t.setPersonality(argAt(a, 0), browser.Int(argAt(a, 2))); err != abi.OK {
				reply(int64(-1), errv(err))
				return
			}
			reply(int64(0), errv(abi.OK))
		},
		// Ring-transport negotiation (after personality): request and
		// reply ring regions inside the registered heap.
		"ring": func(k *Kernel, t *Task, a []browser.Value, reply func(...browser.Value)) {
			if err := k.registerRing(t, browser.Int(argAt(a, 0)), browser.Int(argAt(a, 1)), browser.Int(argAt(a, 2)), browser.Int(argAt(a, 3))); err != abi.OK {
				reply(int64(-1), errv(err))
				return
			}
			reply(int64(0), errv(abi.OK))
		},
		// Post-boot snapshot capture (internal/snapshot): the kernel
		// freezes the process's heap and fd/env/cwd template as the
		// runtime's image. The call's two words are not read.
		"snapcap": func(k *Kernel, t *Task, a []browser.Value, reply func(...browser.Value)) {
			k.doSnapcap(t, reply)
		},
		// Clone-boot restore: one combined registration replacing the
		// personality + ring negotiation round trips.
		"restore": func(k *Kernel, t *Task, a []browser.Value, reply func(...browser.Value)) {
			k.doRestore(t, a, reply)
		},
		"fork": func(k *Kernel, t *Task, a []browser.Value, reply func(...browser.Value)) {
			mem, _ := argAt(a, 0).([]byte)
			label, _ := argAt(a, 1).(string)
			k.doFork(t, &ForkImage{Mem: mem, Label: label}, func(pid int, err abi.Errno) {
				reply(int64(pid), errv(err))
			})
		},
	}
}

// argAt returns cloned argument i, or nil past the end.
func argAt(a []browser.Value, i int) browser.Value {
	if i < len(a) {
		return a[i]
	}
	return nil
}

// setPersonality registers a task's heap and its wake cell, which must
// lie inside the heap.
func (t *Task) setPersonality(v browser.Value, waitOff int64) abi.Errno {
	sab, _ := v.(*browser.SAB)
	if sab == nil {
		return abi.EINVAL
	}
	if waitOff < 0 || waitOff > int64(sab.Len())-4 {
		return abi.EINVAL
	}
	t.heap, t.waitOff = sab, int(waitOff)
	return abi.OK
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
