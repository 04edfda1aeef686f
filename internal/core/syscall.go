package core

import (
	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/fs"
)

// This file is the kernel's system-call entry point and its asynchronous
// codec (§3.2 of the paper): postMessage with cloned arguments, decoded
// into the typed arguments of the shared op table (ops.go), with
// continuation-style [ret, errno, extra...] replies. The synchronous
// transport's codec is in synccall.go.

// onWorkerMessage handles every message a process sends the kernel.
func (k *Kernel) onWorkerMessage(t *Task, w *browser.Worker, v browser.Value) {
	if t.state == taskZombie || t.worker != w {
		return // stale message from a replaced or exited image
	}
	m, ok := v.(map[string]browser.Value)
	if !ok {
		return
	}
	switch browser.GetString(m, "type") {
	case "syscall":
		k.AsyncSyscalls.Add(1)
		k.Sys.Sim.Charge(k.CPU.SyscallNs)
		name := browser.GetString(m, "name")
		k.SyscallCount[name]++
		k.asyncCall(t, w, browser.GetInt(m, "id"), name, browser.GetArray(m, "args"))
	case "sync":
		k.SyncSyscalls.Add(1)
		k.Sys.Sim.Charge(k.CPU.SyscallNs)
		trap := int(browser.GetInt(m, "trap"))
		k.SyscallCount[abi.SyscallName(trap)]++
		args := browser.GetArray(m, "args")
		ia := make([]int64, len(args))
		for i := range args {
			ia[i] = browser.Int(args[i])
		}
		k.dispatchSync(t, trap, ia)
	case "ringbell":
		// Ring-transport doorbell: any number of call frames may be
		// queued behind this one message. Per-call kernel CPU is charged
		// inside the drain; the doorbell itself already paid the
		// postMessage cost.
		k.drainRing(t)
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
	d, err := t.lookFd(oldfd)
	if err != abi.OK {
		return err
	}
	if oldfd == newfd {
		return abi.OK
	}
	if _, exists := t.files[newfd]; exists {
		t.closeFd(newfd, func(abi.Errno) {})
	}
	d.Ref()
	t.files[newfd] = d
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
func (k *Kernel) postReply(t *Task, w *browser.Worker, id int64, ret []browser.Value) {
	if t.worker != w || w.Terminated() {
		return
	}
	w.PostMessage(map[string]browser.Value{"type": "reply", "id": id, "ret": ret})
}

// asyncCall decodes a cloned-argument call, runs the trap's op, and
// replies with its result encoded as [ret, errno, extra...].
func (k *Kernel) asyncCall(t *Task, w *browser.Worker, id int64, name string, args []browser.Value) {
	trap := abi.SyscallTrap(name)
	if op := sysOps[trap]; op != nil {
		row := &abi.Syscalls[trap]
		a, err := t.asyncArgs(row, args)
		if err != abi.OK {
			k.postReply(t, w, id, []browser.Value{int64(-1), errv(err)})
			return
		}
		shape := row.Ret
		op(k, t, a, func(r abi.Result) { k.postReply(t, w, id, asyncResult(shape, r)) })
		return
	}
	if local := asyncLocal[name]; local != nil {
		local(k, t, args, func(ret ...browser.Value) { k.postReply(t, w, id, ret) })
		return
	}
	k.postReply(t, w, id, []browser.Value{int64(-1), errv(abi.ENOSYS)})
}

// valueInts reads a cloned integer array, skipping non-integers.
func valueInts(v browser.Value) []int {
	var out []int
	arr, _ := v.([]browser.Value)
	for _, e := range arr {
		switch x := e.(type) {
		case int64:
			out = append(out, int(x))
		case int:
			out = append(out, x)
		case float64:
			out = append(out, int(x))
		}
	}
	return out
}

// asyncArgs decodes a cloned argument list into typed arguments, in row
// order; an ArgFd is looked up where it stands.
func (t *Task) asyncArgs(row *abi.Syscall, v []browser.Value) (a callArgs, err abi.Errno) {
	i, ni, ns, nl := 0, 0, 0, 0
	for _, shape := range row.Args {
		switch shape {
		case abi.ArgOutBuf:
			a.Cap = -1
			continue
		case abi.ArgOutRec:
			continue
		}
		var x browser.Value
		if i < len(v) {
			x = v[i]
		}
		i++
		switch shape {
		case abi.ArgInt, abi.ArgOpt:
			a.Int[ni] = browser.Int(x)
			ni++
		case abi.ArgFd:
			a.Int[ni] = browser.Int(x)
			ni++
			if a.d, err = t.lookFd(int(a.Int[ni-1])); err != abi.OK {
				return a, err
			}
		case abi.ArgStr:
			a.Str[ns], _ = x.(string)
			ns++
		case abi.ArgStrs:
			if arr, ok := x.([]browser.Value); ok {
				a.Strs[nl] = browser.Strings(arr)
			}
			nl++
		case abi.ArgBytes:
			a.Bytes, _ = x.([]byte)
		case abi.ArgInts:
			a.Ints = valueInts(x)
		case abi.ArgBufs:
			arr, _ := x.([]browser.Value)
			for _, e := range arr {
				if b, ok := e.([]byte); ok && len(b) > 0 {
					a.Bufs = append(a.Bufs, b)
				}
			}
		case abi.ArgLens:
			a.Lens = valueInts(x)
			if len(a.Lens) > 1024 {
				return a, abi.EINVAL
			}
			for _, n := range a.Lens {
				if n < 0 {
					return a, abi.EINVAL
				}
			}
		case abi.ArgPollfds:
			// A flat [fd0, events0, fd1, events1, ...] array.
			raw := valueInts(x)
			if len(raw)%2 != 0 || len(raw)/2 > 4096 {
				return a, abi.EINVAL
			}
			a.Pollfds = make([]abi.Pollfd, len(raw)/2)
			for j := range a.Pollfds {
				a.Pollfds[j] = abi.Pollfd{Fd: int32(raw[2*j]), Events: uint32(raw[2*j+1])}
			}
		case abi.ArgOut:
			a.Cap = browser.Int(x)
		}
	}
	return a, abi.OK
}

// asyncResult encodes a completed call as its reply array.
func asyncResult(shape abi.Ret, r abi.Result) []browser.Value {
	switch shape {
	case abi.RetBytes:
		return []browser.Value{r.Ret, errv(r.Err), r.Data}
	case abi.RetSegs:
		if r.Err != abi.OK {
			return []browser.Value{int64(-1), errv(r.Err)}
		}
		arr := make([]browser.Value, len(r.Segs))
		for i, s := range r.Segs {
			arr[i] = s
		}
		return []browser.Value{r.Ret, errv(r.Err), arr}
	case abi.RetStat:
		return []browser.Value{r.Ret, errv(r.Err), abi.StatToMap(r.Stat)}
	case abi.RetStr:
		return []browser.Value{r.Ret, errv(r.Err), r.Str}
	case abi.RetDirents:
		arr := make([]browser.Value, len(r.Ents))
		for i, e := range r.Ents {
			arr[i] = abi.DirentToMap(e)
		}
		return []browser.Value{r.Ret, errv(r.Err), arr}
	case abi.RetPair:
		return []browser.Value{r.Ret, errv(r.Err), r.Aux[0], r.Aux[1]}
	case abi.RetStatus:
		return []browser.Value{r.Ret, errv(r.Err), r.Aux[0]}
	case abi.RetPollfds:
		rev := make([]browser.Value, len(r.Pollfds))
		for i := range r.Pollfds {
			rev[i] = int64(r.Pollfds[i].Revents)
		}
		return []browser.Value{r.Ret, errv(r.Err), rev}
	}
	return []browser.Value{r.Ret, errv(r.Err)}
}

// asyncLocalOp is a call only the asynchronous transport carries: the
// registrations that set up the other transports, and fork.
type asyncLocalOp func(k *Kernel, t *Task, a []browser.Value, reply func(...browser.Value))

// asyncLocal is filled by init: fork reaches the spawn path, which
// reaches the codec that indexes this table.
var asyncLocal map[string]asyncLocalOp

func init() {
	asyncLocal = map[string]asyncLocalOp{
		// Sync-syscall registration (§3.2): heap + return-value offset +
		// wake offset.
		"personality": func(k *Kernel, t *Task, a []browser.Value, reply func(...browser.Value)) {
			if err := t.setPersonality(argAt(a, 0), browser.Int(argAt(a, 1)), browser.Int(argAt(a, 2))); err != abi.OK {
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
		// Page-pool negotiation (after the ring): the kernel shares its
		// page-cache arena as a SharedArrayBuffer, and the process may
		// issue readg calls answered with page grants against it.
		// Refusal leaves the process on the copy path.
		"pagepool": func(k *Kernel, t *Task, a []browser.Value, reply func(...browser.Value)) {
			if k.DisableZeroCopy || t.heap == nil || t.ring == nil {
				reply(int64(-1), errv(abi.ENOSYS))
				return
			}
			t.pool = true
			reply(int64(0), errv(abi.OK), k.pagePoolSAB())
		},
		// Post-boot snapshot capture (internal/snapshot): the process
		// reports its negotiated transport state and the kernel freezes
		// its heap and fd/env/cwd template as the runtime's image.
		"snapcap": func(k *Kernel, t *Task, a []browser.Value, reply func(...browser.Value)) {
			k.doSnapcap(t, browser.Int(argAt(a, 0)) != 0, browser.Int(argAt(a, 1)) != 0, browser.Int(argAt(a, 2)), reply)
		},
		// Clone-boot restore: one combined registration replacing the
		// personality + ring + pagepool negotiation round trips.
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

// setPersonality registers a task's heap and its wake and return-value
// cells, which must lie inside the heap.
func (t *Task) setPersonality(v browser.Value, retOff, waitOff int64) abi.Errno {
	sab, _ := v.(*browser.SAB)
	if sab == nil {
		return abi.EINVAL
	}
	hlen := int64(sab.Len())
	if retOff < 0 || retOff > hlen-12 || waitOff < 0 || waitOff > hlen-4 {
		return abi.EINVAL
	}
	t.heap, t.retOff, t.waitOff = sab, int(retOff), int(waitOff)
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
