package rt

import (
	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/posix"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// workerRT is the process-side Browsix runtime living inside a Web
// Worker: the counterpart of the paper's GopherJS/Emscripten/browser-node
// integrations. It owns the worker's message loop, the outstanding-call
// table (a Browsix process "can have multiple outstanding system calls",
// §4.2), the signal-handler table, and — for em-sync — the shared heap.
type workerRT struct {
	sys  *browser.System
	sim  *sched.Sim
	w    *browser.Worker
	prog *posix.Program
	kind Kind
	cost Cost

	pid  int
	args []string
	env  []string

	nextID   int64
	pending  map[int64]*sched.G
	calls    abi.CallPool // call frames, back once their replies arrive
	handlers map[int]func(int)

	// Synchronous-syscall state (em-sync): the heap, laid out as
	// abi.HeapRings says — the wake cell at abi.HeapWakeOff, the two
	// rings at the top — with this runtime's scratch for string and
	// buffer arguments in [scratchBase, scratchTop), below the rings.
	sync       bool
	heap       *browser.SAB
	scratch    int64
	scratchTop int64 // exclusive upper bound for scratch allocations

	// Ring transport, registered with the kernel by the personality.
	reqRing   abi.Ring
	repRing   abi.Ring
	ringSeq   uint32
	ringStash map[uint32]ringRep
	ringBatch ringBatch // the outermost ringCalls' storage

	// ringOutstanding counts pushed frames whose replies have not yet
	// been popped (bounds batches to the reply ring's capacity);
	// inflight counts parked sync/ring calls so only the outermost
	// recycles the scratch region.
	ringOutstanding int
	inflight        int
}

// scratchBase is where argument scratch starts, above the wake cell.
const scratchBase = 64

// exitSentinel unwinds a program coroutine when Exit is called mid-stack.
type exitSentinel struct{ code int }

// bootWorker is the worker script's top-level: it registers onmessage and
// waits for the kernel's init message before running main (§3.3: "BROWSIX-
// enabled runtimes delay execution of a process's main() function until
// after the worker has received an init message").
func bootWorker(sys *browser.System, w *browser.Worker, prog *posix.Program, kind Kind) {
	r := &workerRT{
		sys:      sys,
		sim:      sys.Sim,
		w:        w,
		prog:     prog,
		kind:     kind,
		cost:     CostOf(kind),
		pending:  map[int64]*sched.G{},
		handlers: map[int]func(int){},
		sync:     kind == EmSyncKind || kind == WasmKind,
	}
	w.Ctx.OnMessage = r.onMessage
}

func (r *workerRT) onMessage(v browser.Value) {
	if f, ok := v.(*abi.ReplyFrame); ok {
		r.resume(f)
		return
	}
	// The kernel's control messages: init and signal.
	m, ok := v.(map[string]browser.Value)
	if !ok {
		return
	}
	switch browser.GetString(m, "type") {
	case "init":
		r.pid = int(browser.GetInt(m, "pid"))
		r.args = browser.Strings(browser.GetArray(m, "args"))
		r.env = browser.Strings(browser.GetArray(m, "env"))
		forkMem := browser.GetBytes(m, "forkMem")
		forkLabel := browser.GetString(m, "forkLabel")
		img, _ := m["snapimage"].(*snapshot.Image)
		tracker, _ := m["snaptracker"].(*snapshot.Tracker)
		snapCap := browser.GetInt(m, "snapcap") != 0
		if img != nil {
			// Clone boot: fix up the restored snapshot instead of
			// re-running interpreter/stdlib initialization.
			r.sim.Charge(r.cost.RestoreNs)
		} else {
			// Runtime start-up: interpreter/stdlib initialization.
			r.sim.Charge(r.cost.InitNs)
		}
		if r.sync {
			r.heap = r.sys.NewSAB(r.cost.HeapSize)
		}
		g := r.sim.NewG(r.w.Ctx.Sched(), r.prog.Name, func(any) {
			defer r.recoverExit()
			if r.sync {
				if img != nil && img.HeapLen == r.heap.Len() {
					r.restoreFromImage(img, tracker)
				}
				// Register the sync-syscall personality (§3.2): the
				// heap, and with it the rings laid out in it.
				r.register()
			}
			if snapCap { // a first boot, never a clone
				r.captureSnapshot()
			}
			var code int
			if forkLabel != "" || len(forkMem) > 0 {
				if r.prog.ResumeFork == nil {
					code = 127
				} else {
					code = r.prog.ResumeFork(r, forkMem, forkLabel)
				}
			} else {
				code = r.prog.Main(r)
			}
			r.sendExit(code)
		})
		r.sim.ResumeG(g, nil)
	case "signal":
		sig := int(browser.GetInt(m, "sig"))
		h := r.handlers[sig]
		if h == nil {
			return
		}
		// The handler runs as its own event-driven coroutine so it may
		// itself issue system calls while the main program is parked.
		g := r.sim.NewG(r.w.Ctx.Sched(), "sighandler", func(any) {
			defer r.recoverExit()
			h(sig)
		})
		r.sim.ResumeG(g, nil)
	}
}

// recoverExit converts an Exit() unwind (exitSentinel) into the explicit
// exit system call; ErrKilled and real panics propagate.
func (r *workerRT) recoverExit() {
	e := recover()
	switch {
	case e == nil:
	case e == sched.ErrKilled:
		panic(e)
	default:
		if es, ok := e.(exitSentinel); ok {
			r.sendExit(es.code)
			return
		}
		panic(e)
	}
}

// sendExit issues the explicit exit system call every runtime must make
// (§3.3) — no reply is expected; the kernel tears the worker down.
func (r *workerRT) sendExit(code int) {
	r.w.PostToParent(&abi.CallFrame{ID: -1, Trap: abi.SYS_exit, Args: abi.Args{Int: [3]int64{int64(code)}}})
}

// ---------------------------------------------------------------------------
// Asynchronous transport (§3.2): continuation-passing over postMessage.
// The calling coroutine parks; the reply event resumes it. Under the
// Emterpreter the runtime also pays stack unwind/rewind.
// ---------------------------------------------------------------------------

// roundTrip posts call trap as a CallFrame under a fresh id and parks
// the calling coroutine until the kernel's ReplyFrame resumes it. The
// kernel decoded the call frame before it replied, so the frame goes
// back to the pool then; the caller releases the reply once it has
// read the result.
func (r *workerRT) roundTrip(trap int, a *abi.Args) *abi.ReplyFrame {
	r.sim.Charge(r.cost.SyscallCPUNs)
	if r.cost.UnwindNs > 0 {
		r.sim.Charge(r.cost.UnwindNs)
	}
	id := r.nextID
	r.nextID++
	call := r.calls.Take()
	call.ID, call.Trap, call.Args = id, trap, *a
	r.w.PostToParent(call)
	g := r.sim.CurG()
	if g == nil {
		panic("rt: syscall outside program coroutine")
	}
	r.pending[id] = g
	f, _ := r.sim.Park().(*abi.ReplyFrame)
	r.calls.Put(call)
	if r.cost.RewindNs > 0 {
		r.sim.Charge(r.cost.RewindNs)
	}
	return f
}

// resume wakes the coroutine parked on the call f answers.
func (r *workerRT) resume(f *abi.ReplyFrame) {
	g := r.pending[f.ID]
	if g == nil {
		f.Release()
		return
	}
	delete(r.pending, f.ID)
	r.sim.ResumeG(g, f)
}

// ---------------------------------------------------------------------------
// Synchronous transport (§3.2): arguments staged in the shared heap, call
// frames pushed into the ring (ring.go), blocking Atomics.wait until the
// reply ring answers.
// ---------------------------------------------------------------------------

// putStr stages a string argument in scratch, returning (ptr, len).
func (r *workerRT) putStr(s string) (int64, int64) {
	ptr := r.alloc(int64(len(s)))
	copy(r.heap.Bytes()[ptr:], s)
	r.heap.MarkDirty(int(ptr), len(s))
	return ptr, int64(len(s))
}

// putBytes stages a buffer in scratch.
func (r *workerRT) putBytes(b []byte) (int64, int64) {
	ptr := r.alloc(int64(len(b)))
	copy(r.heap.Bytes()[ptr:], b)
	r.heap.MarkDirty(int(ptr), len(b))
	return ptr, int64(len(b))
}

// alloc bumps the scratch pointer (reset after each call completes). The
// ring regions at the top of the heap are off limits.
func (r *workerRT) alloc(n int64) int64 {
	if r.scratch < scratchBase {
		r.scratch = scratchBase
	}
	ptr := r.scratch
	if ptr+n > r.scratchTop {
		panic("rt: sync-syscall scratch overflow")
	}
	r.scratch = (ptr + n + 7) &^ 7
	return ptr
}

// scratchFits reports whether n more scratch bytes (plus alignment slack)
// fit below the ring regions.
func (r *workerRT) scratchFits(n int64) bool {
	base := r.scratch
	if base < scratchBase {
		base = scratchBase
	}
	return base+n+8 <= r.scratchTop
}

// maxScratchPayload is the largest single data buffer stageable in the
// scratch region, leaving slack for argument/iovec staging.
func (r *workerRT) maxScratchPayload() int64 {
	m := r.scratchTop - scratchBase - 256
	if m < 0 {
		m = 0
	}
	return m
}

// ---------------------------------------------------------------------------
// posix.Proc implementation. Each method fills typed arguments and calls
// r.call, whose codec follows the runtime's transport (codec.go). The
// only transport-specific paths left here are the sync codec's own:
// ring-batched writev/stat/accept, one-segment readv, and degrading
// requests larger than the scratch region.
// ---------------------------------------------------------------------------

func ints(v ...int) [3]int64 {
	var out [3]int64
	for i, x := range v {
		out[i] = int64(x)
	}
	return out
}

func (r *workerRT) Getpid() int { return r.pid }
func (r *workerRT) Getppid() int {
	return int(r.call(abi.SYS_getppid, &abi.Args{}).Ret)
}
func (r *workerRT) Args() []string    { return r.args }
func (r *workerRT) Environ() []string { return r.env }
func (r *workerRT) Getenv(key string) string {
	return posix.Getenv(r.env, key)
}
func (r *workerRT) Setenv(key, value string) { r.env = posix.SetEnv(r.env, key, value) }

func (r *workerRT) Open(path string, flags int, mode uint32) (int, abi.Errno) {
	res := r.call(abi.SYS_open, &abi.Args{Str: [2]string{path}, Int: ints(flags, int(mode))})
	return int(res.Ret), res.Err
}

func (r *workerRT) Close(fd int) abi.Errno {
	return r.call(abi.SYS_close, &abi.Args{Int: ints(fd)}).Err
}

// Read is the classic read: on the sync transport the kernel copies the
// payload once into the scratch region; a request larger than scratch
// degrades to a short read.
func (r *workerRT) Read(fd int, n int) ([]byte, abi.Errno) {
	res := r.call(abi.SYS_read, &abi.Args{Int: ints(fd), Cap: int64(n)})
	return res.Data, res.Err
}

// Write is the classic write: on the sync transport the payload is
// staged through the scratch region, one kernel copy out of the heap.
func (r *workerRT) Write(fd int, b []byte) (int, abi.Errno) {
	// Buffers larger than the scratch region go out in pieces.
	if max := r.maxScratchPayload(); r.sync && int64(len(b)) > max {
		if max <= 0 {
			return 0, abi.ENOMEM
		}
		total := 0
		for len(b) > 0 {
			n := int(min(int64(len(b)), max))
			m, err := r.Write(fd, b[:n])
			total += m
			if err != abi.OK {
				// Short-write semantics: earlier chunks that landed make
				// this a successful partial write, not an EAGAIN.
				if err == abi.EAGAIN && total > 0 {
					return total, abi.OK
				}
				return total, err
			}
			if m <= 0 {
				return total, abi.EIO
			}
			b = b[m:]
		}
		return total, abi.OK
	}
	res := r.call(abi.SYS_write, &abi.Args{Int: ints(fd), Bytes: b})
	return int(res.Ret), res.Err
}

// Readv reads up to the sum of lens bytes in a single kernel crossing,
// with one blocking point: it returns whatever is immediately available.
// On the sync transport that crossing is one read of the total, returned
// as a single segment (POSIX-legal: callers scatter the stream
// themselves).
func (r *workerRT) Readv(fd int, lens []int) ([][]byte, abi.Errno) {
	if len(lens) > abi.IovMax {
		return nil, abi.EINVAL
	}
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
	if r.sync {
		b, err := r.Read(fd, total)
		if err != abi.OK || len(b) == 0 {
			return nil, err
		}
		return [][]byte{b}, abi.OK
	}
	res := r.call(abi.SYS_readv, &abi.Args{Int: ints(fd), Ints: lens})
	return res.Segs, res.Err
}

// Writev writes every buffer in order through a single kernel crossing
// (one writev trap, or one ring doorbell fanning out per-buffer frames).
func (r *workerRT) Writev(fd int, bufs [][]byte) (int64, abi.Errno) {
	if len(bufs) > abi.IovMax {
		return -1, abi.EINVAL
	}
	nonEmpty := make([][]byte, 0, len(bufs))
	for _, b := range bufs {
		if len(b) > 0 {
			nonEmpty = append(nonEmpty, b)
		}
	}
	if len(nonEmpty) == 0 {
		return 0, abi.OK
	}
	if r.sync {
		return r.ringWritev(fd, nonEmpty)
	}
	res := r.call(abi.SYS_writev, &abi.Args{Int: ints(fd), Bufs: nonEmpty})
	return res.Ret, res.Err
}

func (r *workerRT) Pread(fd int, n int, off int64) ([]byte, abi.Errno) {
	res := r.call(abi.SYS_pread, &abi.Args{Int: [3]int64{int64(fd), off}, Cap: int64(n)})
	return res.Data, res.Err
}

func (r *workerRT) Pwrite(fd int, b []byte, off int64) (int, abi.Errno) {
	res := r.call(abi.SYS_pwrite, &abi.Args{Int: [3]int64{int64(fd), off}, Bytes: b})
	return int(res.Ret), res.Err
}

func (r *workerRT) Seek(fd int, off int64, whence int) (int64, abi.Errno) {
	res := r.call(abi.SYS_llseek, &abi.Args{Int: [3]int64{int64(fd), off, int64(whence)}})
	return res.Ret, res.Err
}

func (r *workerRT) Ftruncate(fd int, size int64) abi.Errno {
	return r.call(abi.SYS_ftruncate, &abi.Args{Int: [3]int64{int64(fd), size}}).Err
}

func (r *workerRT) Fsync(fd int) abi.Errno {
	return r.call(abi.SYS_fsync, &abi.Args{Int: ints(fd)}).Err
}

func (r *workerRT) Dup2(oldfd, newfd int) abi.Errno {
	return r.call(abi.SYS_dup2, &abi.Args{Int: ints(oldfd, newfd)}).Err
}

func (r *workerRT) Stat(path string) (abi.Stat, abi.Errno) {
	res := r.call(abi.SYS_stat, &abi.Args{Str: [2]string{path}})
	return res.Stat, res.Err
}
func (r *workerRT) Lstat(path string) (abi.Stat, abi.Errno) {
	res := r.call(abi.SYS_lstat, &abi.Args{Str: [2]string{path}})
	return res.Stat, res.Err
}

// StatBatchAmortized implements posix.StatBatchAmortizer: only the ring
// transport turns a StatBatch into one doorbell; async pays one round
// trip per path, so probe loops should early-exit there.
func (r *workerRT) StatBatchAmortized() bool { return r.sync }

// StatBatch fans a stat storm out as ring call frames sharing one
// doorbell: the kernel drains them as a single batch and answers with
// one notify.
// On the async transport it degrades to one stat per call, preserving
// identical results.
func (r *workerRT) StatBatch(paths []string, lstat bool) ([]abi.Stat, []abi.Errno) {
	sts := make([]abi.Stat, len(paths))
	errs := make([]abi.Errno, len(paths))
	trap := abi.SYS_stat
	if lstat {
		trap = abi.SYS_lstat
	}
	one := func(p string) (abi.Stat, abi.Errno) {
		res := r.call(trap, &abi.Args{Str: [2]string{p}})
		return res.Stat, res.Err
	}
	if !r.sync {
		for i, p := range paths {
			sts[i], errs[i] = one(p)
		}
		return sts, errs
	}
	row := &abi.Syscalls[trap]
	i := 0
	for i < len(paths) {
		// Stage what fits in the scratch region, one sub-batch per
		// doorbell.
		var stages []staged
		j := i
		for ; j < len(paths); j++ {
			if !r.scratchFits(int64(len(paths[j])) + abi.StatSize + 32) {
				break
			}
			stages = append(stages, staged{})
			r.stage(row, &abi.Args{Str: [2]string{paths[j]}}, &stages[len(stages)-1])
		}
		if len(stages) == 0 {
			// Scratch exhausted by a pathological name: send this one
			// on its own and continue batching after.
			sts[i], errs[i] = one(paths[i])
			i++
			continue
		}
		reqs := make([]ringReq, len(stages))
		for k := range stages {
			reqs[k] = ringReq{trap: trap, args: stages[k].words[:stages[k].n]}
		}
		rets, rerrs := r.ringCalls(reqs)
		for k := range reqs {
			res := r.unstage(row, nil, &stages[k], rets[k], rerrs[k])
			sts[i+k], errs[i+k] = res.Stat, res.Err
		}
		i = j
	}
	return sts, errs
}

func (r *workerRT) Fstat(fd int) (abi.Stat, abi.Errno) {
	res := r.call(abi.SYS_fstat, &abi.Args{Int: ints(fd)})
	return res.Stat, res.Err
}

func (r *workerRT) Access(path string, mode int) abi.Errno {
	return r.call(abi.SYS_access, &abi.Args{Str: [2]string{path}, Int: ints(mode)}).Err
}

func (r *workerRT) Readlink(path string) (string, abi.Errno) {
	res := r.call(abi.SYS_readlink, &abi.Args{Str: [2]string{path}, Cap: 4096})
	return res.Str, res.Err
}

func (r *workerRT) Utimes(path string, atime, mtime int64) abi.Errno {
	return r.call(abi.SYS_utimes, &abi.Args{Str: [2]string{path}, Int: [3]int64{atime, mtime}}).Err
}

func (r *workerRT) Mkdir(path string, mode uint32) abi.Errno {
	return r.call(abi.SYS_mkdir, &abi.Args{Str: [2]string{path}, Int: ints(int(mode))}).Err
}
func (r *workerRT) Rmdir(path string) abi.Errno {
	return r.call(abi.SYS_rmdir, &abi.Args{Str: [2]string{path}}).Err
}
func (r *workerRT) Unlink(path string) abi.Errno {
	return r.call(abi.SYS_unlink, &abi.Args{Str: [2]string{path}}).Err
}

func (r *workerRT) Rename(oldp, newp string) abi.Errno {
	return r.call(abi.SYS_rename, &abi.Args{Str: [2]string{oldp, newp}}).Err
}

func (r *workerRT) Symlink(target, link string) abi.Errno {
	return r.call(abi.SYS_symlink, &abi.Args{Str: [2]string{target, link}}).Err
}

func (r *workerRT) Getdents(fd int) ([]abi.Dirent, abi.Errno) {
	res := r.call(abi.SYS_getdents, &abi.Args{Int: ints(fd), Cap: 64 * 1024})
	return res.Ents, res.Err
}

func (r *workerRT) Chdir(path string) abi.Errno {
	return r.call(abi.SYS_chdir, &abi.Args{Str: [2]string{path}}).Err
}

func (r *workerRT) Getcwd() (string, abi.Errno) {
	res := r.call(abi.SYS_getcwd, &abi.Args{Cap: 4096})
	return res.Str, res.Err
}

func (r *workerRT) Pipe() (int, int, abi.Errno) {
	res := r.call(abi.SYS_pipe2, &abi.Args{})
	if res.Err != abi.OK {
		return -1, -1, res.Err
	}
	return int(res.Aux[0]), int(res.Aux[1]), abi.OK
}

func (r *workerRT) Spawn(path string, argv, env []string, files []int) (int, abi.Errno) {
	res := r.call(abi.SYS_spawn, &abi.Args{Str: [2]string{path}, Strs: [2][]string{argv, env}, Ints: files})
	return int(res.Ret), res.Err
}

func (r *workerRT) Fork(label string, mem []byte) (int, abi.Errno) {
	if !r.kind.SupportsFork() {
		// §3.2: fork is an asynchronous-only call, and only the
		// Emterpreter runtime can serialize its state.
		return -1, abi.ENOSYS
	}
	res := r.call(abi.SYS_fork, &abi.Args{Bytes: mem, Str: [2]string{label}})
	if res.Err != abi.OK {
		return -1, res.Err
	}
	return int(res.Ret), abi.OK
}

func (r *workerRT) Exec(path string, argv, env []string) abi.Errno {
	return r.call(abi.SYS_exec, &abi.Args{Str: [2]string{path}, Strs: [2][]string{argv, env}}).Err
}

func (r *workerRT) Wait4(pid int, options int) (int, int, abi.Errno) {
	res := r.call(abi.SYS_wait4, &abi.Args{Int: ints(pid, options)})
	if res.Err != abi.OK {
		return 0, 0, res.Err
	}
	return int(res.Ret), int(res.Aux[0]), abi.OK
}

func (r *workerRT) Exit(code int) {
	panic(exitSentinel{code})
}

func (r *workerRT) Kill(pid, sig int) abi.Errno {
	return r.call(abi.SYS_kill, &abi.Args{Int: ints(pid, sig)}).Err
}

func (r *workerRT) Signal(sig int, handler func(int)) abi.Errno {
	action := 1
	if handler == nil {
		action = 0
	}
	err := r.call(abi.SYS_signal, &abi.Args{Int: ints(sig, action)}).Err
	if err == abi.OK {
		if handler == nil {
			delete(r.handlers, sig)
		} else {
			r.handlers[sig] = handler
		}
	}
	return err
}

func (r *workerRT) Socket() (int, abi.Errno) {
	res := r.call(abi.SYS_socket, &abi.Args{})
	return int(res.Ret), res.Err
}

func (r *workerRT) Bind(fd, port int) abi.Errno {
	return r.call(abi.SYS_bind, &abi.Args{Int: ints(fd, port)}).Err
}
func (r *workerRT) Listen(fd, backlog int) abi.Errno {
	return r.call(abi.SYS_listen, &abi.Args{Int: ints(fd, backlog)}).Err
}
func (r *workerRT) Connect(fd, port int) abi.Errno {
	return r.call(abi.SYS_connect, &abi.Args{Int: ints(fd, port)}).Err
}

func (r *workerRT) Accept(fd int) (int, abi.Errno) {
	res := r.call(abi.SYS_accept, &abi.Args{Int: ints(fd)})
	return int(res.Ret), res.Err
}

func (r *workerRT) Getsockname(fd int) (int, abi.Errno) {
	res := r.call(abi.SYS_getsockname, &abi.Args{Int: ints(fd)})
	return int(res.Ret), res.Err
}

// AcceptBatch drains the listener backlog as non-blocking accepts. On
// the ring transport all max accept frames share ONE doorbell (the same
// shape as StatBatch): the kernel drains the run in a single batch pass
// and answers with one notify, so an accept storm costs one crossing.
// The async transport degrades to one accept per round trip, stopping
// at the first EAGAIN.
func (r *workerRT) AcceptBatch(fd, max int) ([]int, abi.Errno) {
	if max <= 0 {
		return nil, abi.OK
	}
	a := abi.Args{Int: ints(fd, abi.O_NONBLOCK)}
	var rets []int64
	var errs []abi.Errno
	if r.sync {
		reqs := make([]ringReq, max)
		for i := range reqs {
			reqs[i] = ringReq{trap: abi.SYS_accept, args: a.Int[:2]}
		}
		rets, errs = r.ringCalls(reqs)
	}
	var fds []int
	for i := 0; len(fds) < max; i++ {
		var res abi.Result
		if r.sync {
			if i == len(rets) {
				break
			}
			res = abi.Result{Ret: rets[i], Err: errs[i]}
		} else {
			res = r.call(abi.SYS_accept, &a)
		}
		if res.Err != abi.OK {
			if res.Err == abi.EAGAIN || len(fds) > 0 {
				break
			}
			return nil, res.Err
		}
		fds = append(fds, int(res.Ret))
	}
	return fds, abi.OK
}

// Poll passes the pollfd set as typed records; revents come back
// through the shared heap or the reply array, written into fds in place.
func (r *workerRT) Poll(fds []abi.Pollfd, timeoutNs int64) (int, abi.Errno) {
	if len(fds) == 0 {
		return 0, abi.EINVAL
	}
	res := r.call(abi.SYS_poll, &abi.Args{Pollfds: fds, Int: [3]int64{timeoutNs}})
	return int(res.Ret), res.Err
}

func (r *workerRT) Setfl(fd, flags int) abi.Errno {
	return r.call(abi.SYS_setfl, &abi.Args{Int: ints(fd, flags)}).Err
}

func (r *workerRT) CPU(ns int64) {
	r.sim.Charge(int64(float64(ns) * r.cost.Mult))
}

func (r *workerRT) CPU64(ns int64) {
	r.sim.Charge(int64(float64(ns) * r.cost.Int64Mult))
}

func (r *workerRT) RuntimeName() string { return string(r.kind) }
