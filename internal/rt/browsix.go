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
	handlers map[int]func(int)

	// Synchronous-syscall state (em-sync): the heap layout is
	//   [0,4)   wake cell (Atomics.wait/notify)
	//   [8,16)  syscall return value (int64)
	//   [16,20) errno (int32)
	//   [64,..) scratch for string/buffer arguments
	//   [top-2R, top) request + reply rings (when the ring transport
	//                 is negotiated; R = ringRegionSize)
	sync       bool
	heap       *browser.SAB
	scratch    int64
	scratchTop int64 // exclusive upper bound for scratch allocations

	// Ring transport (negotiated with the kernel after personality
	// registration; falls back to the scalar wake-cell path if refused).
	ringOK    bool
	reqRing   abi.Ring
	repRing   abi.Ring
	ringSeq   uint32
	ringStash map[uint32]ringRep

	// Zero-copy read path (negotiated after the ring): the mapped
	// page-cache arena, the leases held per descriptor (oldest first),
	// and the lease returns queued for the next doorbell (lease.go).
	poolOK         bool
	pool           *browser.SAB
	heldLeases     map[int][]abi.PageGrant
	pendingUnlease []uint32
	// Zero-copy write path (rides the same pool mapping): per-descriptor
	// staging slots leased from the kernel with wgalloc; wgOK drops to
	// false for good on the first ENOSYS (writegrant.go).
	wgOK   bool
	wstage map[int]*writeStage
	// ringOutstanding counts pushed frames whose replies have not yet
	// been popped (bounds batches to the reply ring's capacity);
	// inflight counts parked sync/ring calls so only the outermost
	// recycles the scratch region.
	ringOutstanding int
	inflight        int
}

const (
	syncWaitOff    = 0
	syncRetOff     = 8
	scratchBase    = 64
	ringRegionSize = 8 * 1024
)

// exitSentinel unwinds a program coroutine when Exit is called mid-stack.
type exitSentinel struct{ code int }

// bootWorker is the worker script's top-level: it registers onmessage and
// waits for the kernel's init message before running main (§3.3: "BROWSIX-
// enabled runtimes delay execution of a process's main() function until
// after the worker has received an init message").
func bootWorker(sys *browser.System, w *browser.Worker, prog *posix.Program, kind Kind) {
	r := &workerRT{
		sys:        sys,
		sim:        sys.Sim,
		w:          w,
		prog:       prog,
		kind:       kind,
		cost:       CostOf(kind),
		pending:    map[int64]*sched.G{},
		handlers:   map[int]func(int){},
		heldLeases: map[int][]abi.PageGrant{},
		wstage:     map[int]*writeStage{},
		sync:       kind == EmSyncKind || kind == WasmKind,
	}
	w.Ctx.OnMessage = r.onMessage
}

func (r *workerRT) onMessage(v browser.Value) {
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
			r.heap = browser.NewSAB(r.cost.HeapSize)
			r.scratchTop = int64(r.heap.Len())
		}
		g := r.sim.NewG(r.w.Ctx.Sched(), r.prog.Name, func(any) {
			defer r.recoverExit()
			if r.sync {
				if img != nil && img.HeapLen == r.heap.Len() {
					r.restoreFromImage(img, tracker)
				} else {
					// Register the sync-syscall personality: heap +
					// return/wake offsets (§3.2), via an async call.
					r.asyncCall("personality", r.heap, int64(syncRetOff), int64(syncWaitOff))
					r.negotiateRing()
					r.negotiatePagePool()
					if snapCap {
						r.captureSnapshot()
					}
				}
			} else if img == nil && snapCap {
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
	case "reply":
		id := browser.GetInt(m, "id")
		g := r.pending[id]
		if g == nil {
			return
		}
		delete(r.pending, id)
		r.sim.ResumeG(g, browser.GetArray(m, "ret"))
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
	r.w.PostToParent(map[string]browser.Value{
		"type": "syscall",
		"id":   int64(-1),
		"name": "exit",
		"args": []browser.Value{int64(code)},
	})
}

// ---------------------------------------------------------------------------
// Asynchronous transport (§3.2): continuation-passing over postMessage.
// The calling coroutine parks; the reply event resumes it. Under the
// Emterpreter the runtime also pays stack unwind/rewind.
// ---------------------------------------------------------------------------

func (r *workerRT) asyncCall(name string, args ...browser.Value) []browser.Value {
	r.sim.Charge(r.cost.SyscallCPUNs)
	if r.cost.UnwindNs > 0 {
		r.sim.Charge(r.cost.UnwindNs)
	}
	id := r.nextID
	r.nextID++
	r.w.PostToParent(map[string]browser.Value{
		"type": "syscall",
		"id":   id,
		"name": name,
		"args": args,
	})
	g := r.sim.CurG()
	if g == nil {
		panic("rt: syscall outside program coroutine")
	}
	r.pending[id] = g
	v := r.sim.Park()
	if r.cost.RewindNs > 0 {
		r.sim.Charge(r.cost.RewindNs)
	}
	ret, _ := v.([]browser.Value)
	return ret
}

// ---------------------------------------------------------------------------
// Synchronous transport (§3.2): integer args via postMessage, blocking
// Atomics.wait on the shared heap, results read back from the heap.
// ---------------------------------------------------------------------------

func (r *workerRT) syncCall(trap int, args ...int64) (int64, abi.Errno) {
	if r.ringOK {
		rets, errs := r.ringCalls([]ringReq{{trap: trap, args: args}})
		return rets[0], errs[0]
	}
	r.sim.Charge(r.cost.SyscallCPUNs)
	vargs := make([]browser.Value, len(args))
	for i, a := range args {
		vargs[i] = a
	}
	r.heap.Store32(syncWaitOff, 0)
	r.w.PostToParent(map[string]browser.Value{
		"type": "sync",
		"trap": int64(trap),
		"args": vargs,
	})
	r.inflight++
	r.sys.FutexWait(r.w.Ctx, r.heap, syncWaitOff, 0, -1)
	r.inflight--
	ret := int64(uint64(r.heap.Load32(syncRetOff)) | uint64(r.heap.Load32(syncRetOff+4))<<32)
	errno := abi.Errno(int32(r.heap.Load32(syncRetOff + 8)))
	if r.inflight == 0 {
		// Only the outermost call recycles scratch: a signal handler's
		// interleaved call must keep allocating above a parked call's
		// staged buffers.
		r.scratch = scratchBase
	}
	return ret, errno
}

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
// zero-copy leases and write staging, ring-batched writev/stat/accept,
// and degrading requests larger than the scratch region.
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
	// Close returns the descriptor's page leases and write-staging
	// slots; the reclaim frames share close's doorbell.
	r.dropFdLeases(fd)
	r.dropFdWriteStage(fd)
	return r.callLeased(abi.SYS_close, &abi.Args{Int: ints(fd)}).Err
}

func (r *workerRT) Read(fd int, n int) ([]byte, abi.Errno) {
	if r.poolOK {
		// Zero-copy path: the grant reply is not bounded by the scratch
		// region — only the copy fallback's staging buffer is, degrading
		// oversized cold reads to short reads.
		return r.readLeased(fd, n, int(min(int64(n), r.maxScratchPayload())))
	}
	res := r.call(abi.SYS_read, &abi.Args{Int: ints(fd), Cap: int64(n)})
	return res.Data, res.Err
}

func (r *workerRT) Write(fd int, b []byte) (int, abi.Errno) {
	if r.wgOK && len(b) > 0 {
		// Zero-copy path: stage the payload into leased arena slots and
		// submit references — no bytes cross through scratch.
		if n, err, ok := r.writeStaged(fd, b); ok {
			return n, err
		}
	}
	return r.writePlain(fd, b)
}

// writePlain is the classic write: on the sync transport the payload is
// staged through the scratch region, one kernel copy out of the heap.
func (r *workerRT) writePlain(fd int, b []byte) (int, abi.Errno) {
	// Buffers larger than the scratch region go out in pieces.
	if max := r.maxScratchPayload(); r.sync && int64(len(b)) > max {
		if max <= 0 {
			return 0, abi.ENOMEM
		}
		total := 0
		for len(b) > 0 {
			n := int(min(int64(len(b)), max))
			m, err := r.writePlain(fd, b[:n])
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
func (r *workerRT) Readv(fd int, lens []int) ([][]byte, abi.Errno) {
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
	if r.poolOK {
		// Zero-copy path: one readg covers the whole vector; the result
		// comes back as a single segment (POSIX-legal — callers scatter
		// the stream themselves), assembled from the pool mapping on a
		// warm hit with no kernel payload copy.
		b, err := r.readLeased(fd, total, int(min(int64(total), r.maxScratchPayload())))
		if err != abi.OK || len(b) == 0 {
			return nil, err
		}
		return [][]byte{b}, abi.OK
	}
	if r.sync && !r.scratchFits(int64(total)+int64(len(lens)+1)*(abi.IovecSize+8)) {
		// Payload larger than the scratch region: degrade to one scalar
		// read (still POSIX-legal readv behaviour — a short result).
		b, err := r.Read(fd, total)
		if err != abi.OK || len(b) == 0 {
			return nil, err
		}
		return [][]byte{b}, abi.OK
	}
	res := r.call(abi.SYS_readv, &abi.Args{Int: ints(fd), Lens: lens})
	return res.Segs, res.Err
}

// Writev writes every buffer in order through a single kernel crossing
// (one writev trap, or one ring doorbell fanning out per-buffer frames).
func (r *workerRT) Writev(fd int, bufs [][]byte) (int64, abi.Errno) {
	nonEmpty := make([][]byte, 0, len(bufs))
	need := int64(0)
	for _, b := range bufs {
		if len(b) > 0 {
			nonEmpty = append(nonEmpty, b)
			need += int64(len(b)) + 8
		}
	}
	if len(nonEmpty) == 0 {
		return 0, abi.OK
	}
	if r.ringOK {
		return r.ringWritev(fd, nonEmpty)
	}
	if r.sync && !r.scratchFits(need+int64(len(nonEmpty)+1)*(abi.IovecSize+8)) {
		var total int64
		for _, b := range nonEmpty {
			n, err := r.Write(fd, b)
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
	// Seeking away returns the descriptor's page leases (they were
	// retained for the sequential window the seek abandons); the reclaim
	// frames share the seek's doorbell.
	r.dropFdLeases(fd)
	res := r.callLeased(abi.SYS_llseek, &abi.Args{Int: [3]int64{int64(fd), off, int64(whence)}})
	return res.Ret, res.Err
}

func (r *workerRT) Ftruncate(fd int, size int64) abi.Errno {
	return r.call(abi.SYS_ftruncate, &abi.Args{Int: [3]int64{int64(fd), size}}).Err
}

func (r *workerRT) Fsync(fd int) abi.Errno {
	return r.call(abi.SYS_fsync, &abi.Args{Int: ints(fd)}).Err
}

func (r *workerRT) Dup2(oldfd, newfd int) abi.Errno {
	// newfd is implicitly closed: its held leases and staging slots go
	// back.
	if oldfd != newfd {
		r.dropFdLeases(newfd)
		r.dropFdWriteStage(newfd)
	}
	return r.callLeased(abi.SYS_dup2, &abi.Args{Int: ints(oldfd, newfd)}).Err
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
// transport turns a StatBatch into one doorbell; scalar and async pay
// one round trip per path, so probe loops should early-exit there.
func (r *workerRT) StatBatchAmortized() bool { return r.ringOK }

// StatBatch fans a stat storm out as ring call frames sharing one
// doorbell: the kernel drains them as a single batch, resolves the run
// against the dentry cache in one pass, and answers with one notify.
// Without the ring (scalar or async transport) it degrades to one stat
// per call, preserving identical results.
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
	if !r.ringOK {
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
			// Scratch exhausted by a pathological name: degrade to the
			// scalar call for this one and continue batching after.
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
	ret := r.asyncCall("fork", mem, label)
	return int(vi(ret, 0)), verr(ret)
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
// Scalar and async transports degrade to one accept per round trip,
// stopping at the first EAGAIN.
func (r *workerRT) AcceptBatch(fd, max int) ([]int, abi.Errno) {
	if max <= 0 {
		return nil, abi.OK
	}
	a := abi.Args{Int: ints(fd, abi.O_NONBLOCK)}
	var rets []int64
	var errs []abi.Errno
	if r.ringOK {
		reqs := make([]ringReq, max)
		for i := range reqs {
			reqs[i] = ringReq{trap: abi.SYS_accept, args: a.Int[:2]}
		}
		rets, errs = r.ringCalls(reqs)
	}
	var fds []int
	for i := 0; len(fds) < max; i++ {
		var res abi.Result
		if r.ringOK {
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
