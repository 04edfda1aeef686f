package core

import (
	"bytes"
	"strings"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/fs"
	"repro/internal/snapshot"
)

// Loader turns an executable's bytes into a Web Worker entry point. The
// runtime package (internal/rt) installs a loader that understands
// "compiled to JavaScript" executables — files carrying a Browsix program
// marker naming the program and its language runtime. The kernel itself
// only understands shebang lines, which it resolves to interpreters before
// consulting the loader, mirroring Browsix (§3.3: "executables include
// JavaScript files, files beginning with a shebang line, and WebAssembly
// files").
type Loader func(script []byte) (func(w *browser.Worker), abi.Errno)

// Cost holds the kernel-side CPU cost model (virtual ns charged to the
// main thread, where the kernel runs).
type Cost struct {
	// SyscallNs is the kernel CPU per system call handled (decode,
	// dispatch, subsystem work bookkeeping).
	SyscallNs int64
	// SyncByteNs is the per-byte cost of copying data between the kernel
	// and a process's shared heap on the synchronous path.
	SyncByteNs float64
	// SpawnNs is kernel CPU for constructing a task (excluding the
	// browser's worker start cost).
	SpawnNs int64
}

// DefaultCost returns the calibrated kernel cost model.
func DefaultCost() Cost {
	return Cost{SyscallNs: 1_500, SyncByteNs: 0.15, SpawnNs: 120_000}
}

// Kernel is the Browsix kernel instance, owned by the main browser
// context.
type Kernel struct {
	Sys    *browser.System
	FS     *fs.FileSystem
	Loader Loader
	CPU    Cost

	tasks   map[int]*Task
	nextPid int

	// Snapshots is the checkpoint/fork registry (internal/snapshot).
	// When set, the first cold boot of each runtime captures a post-boot
	// image and later spawns of the same executable clone it
	// copy-on-write. nil (the default) keeps the classic cold-boot path
	// and every pre-existing virtual clock. A fleet shares one sealed
	// registry; a single instance owns a private one.
	Snapshots *snapshot.Registry

	// stubURLs caches the per-executable bootstrap Blob URL clone boots
	// start their workers from: a thin loader stub standing in for the
	// browser's cached compiled artifact, so a clone skips the
	// multi-hundred-KB script eval a cold boot pays.
	stubURLs map[string]string

	ports         map[int]*Socket
	portWatchers  map[int][]func(int)
	nextEphemeral int

	// Parked SYS_poll waiters (poll.go). pollKicking/pollAgain guard
	// re-entrant kicks: a completion may move pipe state inline, which
	// kicks again; the inner request coalesces into one more pass.
	pollParked  []*pollWaiter
	pollKicking bool
	pollAgain   bool

	// Statistics for the evaluation harness. The scalar counters are
	// atomics: a fleet aggregator (or a live stats poller) may read them
	// from the host while the Instance runs on another thread, and a
	// torn 64-bit read would report garbage. SyscallCount remains a
	// plain map — it is owned by the Instance thread; read it only after
	// the instance quiesces (a worker join gives the happens-before).
	SyscallCount     map[string]int64
	AsyncSyscalls    atomic.Int64
	SignalsDelivered atomic.Int64
	// SyncSyscalls and RingSyscalls both count the synchronous calls
	// drained from ring doorbells. The ring is the only synchronous
	// transport, so the two are always equal; both stay only because
	// the benchmark reports both. RingBatchedCalls counts the calls
	// beyond the first in each multi-call doorbell drain — the
	// dispatches the ring saved.
	SyncSyscalls     atomic.Int64
	RingSyscalls     atomic.Int64
	RingBatchedCalls atomic.Int64
	// RingNotifies counts process wakes on the ring transport — a drained
	// doorbell of N calls costs exactly one.
	RingNotifies atomic.Int64
	// ReadCopiedBytes counts payload bytes the kernel copied into guest
	// heaps answering reads; WriteCopiedBytes counts those it copied out
	// of guest heaps accepting writes. On the sync transports every read
	// and write takes this one copy.
	ReadCopiedBytes  atomic.Int64
	WriteCopiedBytes atomic.Int64
	// Always zero: the kernel has no fs-level batching, read grants or
	// write grants. These stay only because the benchmark reports them.
	FSBatchedCalls    atomic.Int64
	GrantedBytes      atomic.Int64
	WriteGrantedBytes atomic.Int64
	LeaseGrants       atomic.Int64
	LeaseReturns      atomic.Int64
	// Snapshot lifecycle statistics: images captured through this
	// kernel, and processes booted as copy-on-write clones.
	SnapshotCaptures atomic.Int64
	CloneBoots       atomic.Int64
}

// NewKernel boots a kernel over the given browser system and file system.
func NewKernel(sys *browser.System, fsys *fs.FileSystem, loader Loader) *Kernel {
	return &Kernel{
		Sys:           sys,
		FS:            fsys,
		Loader:        loader,
		CPU:           DefaultCost(),
		tasks:         map[int]*Task{},
		nextPid:       1,
		ports:         map[int]*Socket{},
		portWatchers:  map[int][]func(int){},
		nextEphemeral: 40000,
		SyscallCount:  map[string]int64{},
		stubURLs:      map[string]string{},
	}
}

// Task returns a live or zombie task by pid.
func (k *Kernel) Task(pid int) *Task { return k.tasks[pid] }

// Tasks returns all task pids, sorted (diagnostics, terminal `ps`).
func (k *Kernel) Tasks() []*Task {
	out := make([]*Task, 0, len(k.tasks))
	for pid := 1; pid <= k.nextPid; pid++ {
		if t, ok := k.tasks[pid]; ok {
			out = append(out, t)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Process creation: spawn, fork, exec (§3.3).
// ---------------------------------------------------------------------------

// ForkImage is the memory snapshot + resume point an Emscripten-style
// runtime ships through the kernel on fork (§4.3: "the runtime sends a
// copy of the global memory array ... along with the current program
// counter to the kernel; the kernel transfers this copy to the new Worker
// as part of the initialization message").
type ForkImage struct {
	Mem   []byte
	Label string
}

// SpawnSpec collects the parameters of a spawn.
type SpawnSpec struct {
	Path string
	Args []string
	Env  []string
	Cwd  string
	// Files maps child descriptor numbers to parent descriptors to
	// inherit (the kernel bumps reference counts).
	Files map[int]*Desc
	// Fork carries the fork snapshot for fork-created children.
	Fork *ForkImage
	// Exec: when non-nil, reuse this task (same pid, fds, cwd) instead
	// of creating a new one; its old worker is replaced.
	execTask *Task
}

const maxShebangDepth = 4

// Spawn constructs a new process from an executable on the file system
// (§3.3). parent may be nil for kernel-initiated processes
// (StartProcess). cb receives the child pid.
func (k *Kernel) Spawn(parent *Task, spec SpawnSpec, cb func(int, abi.Errno)) {
	k.resolveExecutable(spec.Path, spec.Args, spec.Cwd, 0, func(path string, argv []string, script []byte, err abi.Errno) {
		if err != abi.OK {
			cb(0, err)
			return
		}
		main, err := k.Loader(script)
		if err != abi.OK {
			cb(0, err)
			return
		}
		k.Sys.Sim.Charge(k.CPU.SpawnNs)

		// Snapshot lifecycle: a known image turns this spawn into a
		// copy-on-write clone boot; otherwise an unsealed registry asks
		// the new process to capture one after its first boot completes.
		var img *snapshot.Image
		if k.Snapshots != nil && spec.Fork == nil {
			img = k.Snapshots.Lookup(path)
		}

		var t *Task
		if spec.execTask != nil {
			// exec: same task, new image.
			t = spec.execTask
			t.Path = path
			t.Args = argv
			if spec.Env != nil {
				t.Env = spec.Env
			}
			t.heap, t.waitOff, t.ring = nil, 0, nil
			k.releaseTaskSnapshot(t)
			t.sigActions = map[int]sigAction{}
			old := t.worker
			defer old.Terminate()
		} else {
			t = &Task{
				k:          k,
				Pid:        k.nextPid,
				Path:       path,
				Args:       argv,
				Env:        spec.Env,
				cwd:        fs.Clean(spec.Cwd),
				files:      make([]*Desc, 0, len(spec.Files)),
				children:   map[int]*Task{},
				sigActions: map[int]sigAction{},
				startTime:  k.Sys.Sim.Now(),
			}
			k.nextPid++
			k.tasks[t.Pid] = t
			if parent != nil {
				t.ParentPid = parent.Pid
				parent.children[t.Pid] = t
			}
			for fd, d := range spec.Files {
				d.Ref()
				t.setFd(fd, d)
			}
		}

		// Browsix generates a Blob URL for the executable's bytes so
		// Workers can be built from file-system contents (§3.3), and
		// revokes it once NewWorker has read the script. Clone boots start from the cached bootstrap stub instead — the
		// expensive artifact was already parsed once, and the restored
		// image replaces re-running it.
		var w *browser.Worker
		if img != nil {
			w = k.Sys.NewWorker(k.Sys.Main, k.stubURL(path), main)
		} else {
			url := k.Sys.CreateObjectURL(script)
			w = k.Sys.NewWorker(k.Sys.Main, url, main)
			k.Sys.RevokeObjectURL(url)
		}
		t.worker = w
		w.OnMessage = func(v browser.Value) { k.onWorkerMessage(t, w, v) }

		// "There is no way to pass data to a Worker on startup apart
		// from sending a message": runtimes delay main() until this
		// init message arrives (§3.3).
		init := map[string]browser.Value{
			"type": "init",
			"pid":  int64(t.Pid),
			"args": browser.StringArray(t.Args),
			"env":  browser.StringArray(t.Env),
			"cwd":  t.cwd,
		}
		if spec.Fork != nil {
			init["forkMem"] = spec.Fork.Mem
			init["forkLabel"] = spec.Fork.Label
		}
		switch {
		case img != nil:
			// Clone boot: the image and its COW tracker cross by
			// reference (browser.Shared). Pins are taken here, on the
			// main thread, so the balance invariant holds from the
			// moment of the spawn decision — every death path runs
			// through releaseTaskSnapshot.
			img.PinAll()
			if img.HeapLen > 0 {
				t.snapTracker = snapshot.NewTracker(img, img.NumPages())
				t.snapTracker.SetStats(k.Snapshots.Stats())
				init["snaptracker"] = t.snapTracker
			}
			t.snapImage = img
			init["snapimage"] = img
			k.CloneBoots.Add(1)
			k.Snapshots.Stats().CloneBoots.Add(1)
		case k.Snapshots != nil && !k.Snapshots.Sealed() && spec.Fork == nil:
			// First boot of this runtime: ask it to call back with
			// "snapcap" once init and transport negotiation finish.
			t.snapcap = true
			init["snapcap"] = int64(1)
		}
		w.PostMessage(init)
		cb(t.Pid, abi.OK)
	})
}

// resolveExecutable reads the executable at path, following shebang lines
// ("#!interp [arg]") by prepending the interpreter to argv, as execve does.
// The bytes come by reference (FileSystem.ReadFileShared) and reach the
// loader and the Blob store uncopied; nothing on the spawn path writes
// them.
func (k *Kernel) resolveExecutable(path string, argv []string, cwd string, depth int, cb func(string, []string, []byte, abi.Errno)) {
	if depth > maxShebangDepth {
		cb("", nil, nil, abi.ELOOP)
		return
	}
	abspath := path
	if !strings.HasPrefix(abspath, "/") {
		abspath = fs.Clean(cwd + "/" + path)
	}
	k.FS.ReadFileShared(abspath, func(script []byte, err abi.Errno) {
		if err != abi.OK {
			cb("", nil, nil, err)
			return
		}
		if len(script) > 2 && script[0] == '#' && script[1] == '!' {
			line := script[2:]
			if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
				line = line[:nl]
			}
			fields := strings.Fields(string(line))
			if len(fields) == 0 {
				cb("", nil, nil, abi.ENOEXEC)
				return
			}
			interp := fields[0]
			newArgv := append([]string{}, fields...)
			newArgv = append(newArgv, abspath)
			if len(argv) > 1 {
				newArgv = append(newArgv, argv[1:]...)
			}
			k.resolveExecutable(interp, newArgv, cwd, depth+1, cb)
			return
		}
		if len(argv) == 0 {
			argv = []string{abspath}
		}
		cb(abspath, argv, script, abi.OK)
	})
}

// doSpawn is the spawn system call: path, argv, env, plus the parent fds
// to install as the child's 0,1,2,... (inheriting parent stdio when the
// list is empty).
func (k *Kernel) doSpawn(t *Task, path string, argv, env []string, files []int, cb func(int, abi.Errno)) {
	inherit := map[int]*Desc{}
	if len(files) == 0 {
		files = []int{0, 1, 2}
	}
	for i, pfd := range files {
		if pfd < 0 {
			continue
		}
		d, err := t.lookFd(pfd)
		if err != abi.OK {
			cb(0, err)
			return
		}
		inherit[i] = d
	}
	if len(env) == 0 {
		env = t.Env
	}
	k.Spawn(t, SpawnSpec{Path: path, Args: argv, Env: env, Cwd: t.cwd, Files: inherit}, cb)
}

// doFork implements fork for runtimes that can enumerate and serialize
// their own state (§3.3: Emscripten only). The child inherits the
// descriptor table (by reference), working directory, args and env, and
// re-runs the same executable; the runtime restores the shipped memory
// image and jumps to the resume label instead of calling main.
func (k *Kernel) doFork(t *Task, img *ForkImage, cb func(int, abi.Errno)) {
	inherit := map[int]*Desc{}
	for fd, d := range t.files {
		if d != nil {
			inherit[fd] = d
		}
	}
	k.Spawn(t, SpawnSpec{
		Path:  t.Path,
		Args:  t.Args,
		Env:   t.Env,
		Cwd:   t.cwd,
		Files: inherit,
		Fork:  img,
	}, cb)
}

// doExec replaces the calling task's image while preserving pid,
// descriptor table, and working directory.
func (k *Kernel) doExec(t *Task, path string, argv, env []string, cb func(abi.Errno)) {
	k.Spawn(nil, SpawnSpec{Path: path, Args: argv, Env: env, Cwd: t.cwd, execTask: t}, func(_ int, err abi.Errno) {
		cb(err)
	})
}

// ---------------------------------------------------------------------------
// Exit, wait4, zombies (§3.3).
// ---------------------------------------------------------------------------

// finishTask transitions a task to zombie with the given wait status:
// close descriptors, terminate the Worker, notify the parent (SIGCHLD +
// pending wait4), fire kernel-API exit callbacks, and reparent children.
func (k *Kernel) finishTask(t *Task, status int) {
	if t.state == taskZombie {
		return
	}
	t.state = taskZombie
	t.status = status
	k.releaseTaskSnapshot(t)
	k.dropPollWaiters(t)
	// Close in ascending fd order, so state hooks fire deterministically.
	for fd, d := range t.files {
		if d != nil {
			t.closeFd(fd, func(abi.Errno) {})
		}
	}
	if t.worker != nil {
		t.worker.Terminate()
	}
	// Reparent children to the kernel (pid 0); zombie orphans reap
	// immediately.
	for _, c := range t.children {
		c.ParentPid = 0
		if c.state == taskZombie {
			delete(k.tasks, c.Pid)
		}
	}
	t.children = map[int]*Task{}

	for _, fn := range t.onExit {
		fn(status)
	}
	t.onExit = nil

	parent := k.tasks[t.ParentPid]
	if parent == nil || parent.state == taskZombie {
		// Orphan: auto-reap.
		delete(k.tasks, t.Pid)
		return
	}
	// Wake a pending wait4 if one matches; otherwise stay a zombie.
	for i, w := range parent.waiters {
		if w.pid == -1 || w.pid == t.Pid {
			parent.waiters = append(parent.waiters[:i:i], parent.waiters[i+1:]...)
			delete(parent.children, t.Pid)
			delete(k.tasks, t.Pid)
			w.cb(t.Pid, status, abi.OK)
			k.signalTask(parent, abi.SIGCHLD)
			return
		}
	}
	k.signalTask(parent, abi.SIGCHLD)
}

// doExit is the exit system call. Runtimes must call it explicitly: a Web
// Worker context cannot know the process is done, because the main context
// could message it at any time (§3.3).
func (k *Kernel) doExit(t *Task, code int) {
	k.finishTask(t, abi.ExitStatus(code))
}

// doWait4 reaps a zombie child (§3.3), immediately if one is ready or
// WNOHANG is set, otherwise queuing the continuation.
func (k *Kernel) doWait4(t *Task, pid int, options int, cb func(pid, status int, err abi.Errno)) {
	if len(t.children) == 0 {
		cb(0, 0, abi.ECHILD)
		return
	}
	match := func(c *Task) bool { return pid == -1 || pid == c.Pid }
	for _, c := range t.children {
		if match(c) && c.state == taskZombie {
			delete(t.children, c.Pid)
			delete(k.tasks, c.Pid)
			cb(c.Pid, c.status, abi.OK)
			return
		}
	}
	if pid != -1 {
		if c := t.children[pid]; c == nil {
			cb(0, 0, abi.ECHILD)
			return
		}
	}
	if options&abi.WNOHANG != 0 {
		cb(0, 0, abi.OK)
		return
	}
	t.waiters = append(t.waiters, waitReq{pid: pid, cb: cb})
}

// ---------------------------------------------------------------------------
// Signals (§3.3): kill and signal handlers; kernel-side dispatch.
// ---------------------------------------------------------------------------

// fatalByDefault reports whether a signal's default action terminates.
func fatalByDefault(sig int) bool {
	switch sig {
	case abi.SIGCHLD, abi.SIGCONT:
		return false
	default:
		return true
	}
}

// signalTask delivers sig to t: a registered handler receives an
// asynchronous "signal" message over the same message-passing interface as
// system calls (§4.2); otherwise the default action applies.
func (k *Kernel) signalTask(t *Task, sig int) abi.Errno {
	if t == nil || t.state == taskZombie {
		return abi.ESRCH
	}
	if sig == 0 {
		return abi.OK
	}
	act := t.sigActions[sig]
	if sig == abi.SIGKILL || sig == abi.SIGSTOP {
		act = sigDefault
	}
	switch act {
	case sigCatch:
		k.SignalsDelivered.Add(1)
		t.worker.PostMessage(map[string]browser.Value{
			"type": "signal",
			"sig":  int64(sig),
			"name": abi.SignalName(sig),
		})
		// A caught signal also wakes a process blocked in a
		// synchronous wait ("awakened when the system call has
		// completed or a signal is received", §3.2); the runtime sees
		// EINTR. Message delivery handles the async case naturally.
		return abi.OK
	case sigIgnore:
		return abi.OK
	default:
		if fatalByDefault(sig) {
			k.SignalsDelivered.Add(1)
			k.finishTask(t, abi.SignalStatus(sig))
		}
		return abi.OK
	}
}

// doKill is the kill system call (and the kernel API behind the LaTeX
// editor's cancel button, which sends SIGKILL to the build processes).
func (k *Kernel) doKill(pid, sig int) abi.Errno {
	t := k.tasks[pid]
	if t == nil || t.state == taskZombie {
		return abi.ESRCH
	}
	return k.signalTask(t, sig)
}

// Kill is the exported form for the web application.
func (k *Kernel) Kill(pid, sig int) abi.Errno { return k.doKill(pid, sig) }

// doSignalAction implements the signal-registration system call.
func (k *Kernel) doSignalAction(t *Task, sig int, action int) abi.Errno {
	if sig == abi.SIGKILL || sig == abi.SIGSTOP {
		return abi.EINVAL
	}
	if sig <= 0 || sig > 31 {
		return abi.EINVAL
	}
	switch action {
	case 0:
		delete(t.sigActions, sig)
	case 1:
		t.sigActions[sig] = sigCatch
	case 2:
		t.sigActions[sig] = sigIgnore
	default:
		return abi.EINVAL
	}
	return abi.OK
}

// ---------------------------------------------------------------------------
// The web-application API (§4.1, Figure 4): process launch.
// ---------------------------------------------------------------------------

// Console exposes the stdin pipe of an interactively-launched process
// (the Browsix terminal types into dash through this).
type Console struct {
	k     *Kernel
	stdin File
	desc  *Desc
	Pid   int
}

// WriteStdin feeds bytes to the process's standard input. Call from the
// main context (inside a simulator event).
func (c *Console) WriteStdin(data []byte) {
	c.stdin.Write(c.desc, data, func(int, abi.Errno) {})
}

// WriteStdinCB is WriteStdin with a completion callback, fired once every
// byte is buffered in the pipe — the backpressure point the public API's
// stdin pump paces itself against.
func (c *Console) WriteStdinCB(data []byte, cb func(int, abi.Errno)) {
	c.stdin.Write(c.desc, data, cb)
}

// CloseStdin delivers EOF.
func (c *Console) CloseStdin() {
	c.stdin.Close(func(abi.Errno) {})
}

// ProcSpec describes a process launch through the web-application API:
// the kernel-level counterpart of the public Start(Spec) surface. Unlike
// the legacy kernel.system entry points, it carries the full POSIX launch
// context — argv, environment, working directory, and a live stdin.
type ProcSpec struct {
	// Argv is the argument vector; Argv[0] is resolved against the
	// environment's PATH when it contains no slash.
	Argv []string
	// Env is the child environment; nil selects the default environment.
	Env []string
	// Dir is the working directory; "" means "/".
	Dir string
	// KeepStdin keeps standard input open: the Console returned by
	// StartProcess writes to it. When false the child sees immediate EOF.
	KeepStdin bool
	// OnStart reports the spawn outcome: the child pid, or the errno that
	// prevented the launch (in which case no other callback ever fires).
	OnStart func(pid int, err abi.Errno)
	// OnExit fires when the process exits, with its pid and exit code
	// (128+signal for signal deaths).
	OnExit func(pid, code int)
	// OnStdout/OnStderr stream output as it is produced; a final call
	// with an empty slice signals EOF on that stream.
	OnStdout, OnStderr func([]byte)
}

// StartProcess launches a process per spec with fresh stdout/stderr pipes
// pumped to the supplied callbacks. It generalizes Figure 4's
// kernel.system: env, cwd, and an open stdin travel through the same
// spawn path every transport shares.
func (k *Kernel) StartProcess(spec ProcSpec) *Console {
	console := &Console{k: k}
	if len(spec.Argv) == 0 {
		if spec.OnStart != nil {
			spec.OnStart(0, abi.ENOENT)
		}
		return console
	}
	env := spec.Env
	if env == nil {
		env = defaultEnv()
	}
	dir := spec.Dir
	if dir == "" {
		dir = "/"
	}

	stdinR, stdinW := NewPipePair()
	console.stdin = stdinW
	if spec.KeepStdin {
		console.desc = NewDesc(stdinW, abi.O_WRONLY, "pipe:console")
	} else {
		stdinW.Close(func(abi.Errno) {}) // empty stdin: immediate EOF
	}
	outR, outW := NewPipePair()
	errR, errW := NewPipePair()

	files := map[int]*Desc{
		0: NewDesc(stdinR, abi.O_RDONLY, "pipe:stdin"),
		1: NewDesc(outW, abi.O_WRONLY, "pipe:stdout"),
		2: NewDesc(errW, abi.O_WRONLY, "pipe:stderr"),
	}
	k.pumpPipe(outR, spec.OnStdout)
	k.pumpPipe(errR, spec.OnStderr)

	argv := spec.Argv
	k.lookPath(argv[0], env, func(path string) {
		k.Spawn(nil, SpawnSpec{Path: path, Args: argv, Env: env, Cwd: fs.Clean(dir), Files: files}, func(pid int, err abi.Errno) {
			// Drop the kernel's references so the child holds the only
			// ones; EOF propagates when it exits.
			for _, d := range files {
				d.Unref(func(abi.Errno) {})
			}
			if err != abi.OK {
				if spec.OnStart != nil {
					spec.OnStart(0, err)
				}
				return
			}
			console.Pid = pid
			t := k.tasks[pid]
			t.onExit = append(t.onExit, func(status int) {
				code := abi.WEXITSTATUS(status)
				if abi.WIFSIGNALED(status) {
					code = 128 + abi.WTERMSIG(status)
				}
				if spec.OnExit != nil {
					spec.OnExit(pid, code)
				}
			})
			if spec.OnStart != nil {
				spec.OnStart(pid, abi.OK)
			}
		})
	})
	return console
}

// SplitCmdline turns a command line into the argv StartProcess expects:
// lines containing shell metacharacters run under /bin/sh -c, anything
// else is split on whitespace.
func SplitCmdline(cmdline string) []string {
	if strings.ContainsAny(cmdline, "|&;<>$`()*?\"'") {
		return []string{"/bin/sh", "-c", cmdline}
	}
	return strings.Fields(cmdline)
}

// lookPath resolves a bare command name against the environment's PATH
// (the shell does its own lookup; this covers direct kernel launches).
func (k *Kernel) lookPath(name string, env []string, cb func(path string)) {
	if strings.Contains(name, "/") {
		cb(name)
		return
	}
	path := "/usr/bin:/bin"
	for _, kv := range env {
		if strings.HasPrefix(kv, "PATH=") {
			path = kv[len("PATH="):]
			break
		}
	}
	dirs := strings.Split(path, ":")
	var try func(i int)
	try = func(i int) {
		if i >= len(dirs) {
			cb(name)
			return
		}
		if dirs[i] == "" {
			try(i + 1)
			return
		}
		cand := dirs[i] + "/" + name
		k.FS.Stat(cand, func(_ abi.Stat, err abi.Errno) {
			if err == abi.OK {
				cb(cand)
				return
			}
			try(i + 1)
		})
	}
	try(0)
}

// defaultEnv is the environment kernel-initiated processes receive.
func defaultEnv() []string {
	return []string{"PATH=/usr/bin:/bin", "HOME=/", "TERM=xterm", "USER=browsix"}
}

// pumpPipe streams a kernel-held pipe read end to a callback until EOF,
// then closes it. EOF is signalled by a final cb(nil) call so stream
// consumers can distinguish "no more output" from "none yet".
func (k *Kernel) pumpPipe(readEnd File, cb func([]byte)) {
	d := NewDesc(readEnd, abi.O_RDONLY, "pipe:pump")
	var loop func()
	loop = func() {
		readEnd.Read(d, 32*1024, func(data []byte, err abi.Errno) {
			if err != abi.OK || len(data) == 0 {
				readEnd.Close(func(abi.Errno) {})
				if cb != nil {
					cb(nil)
				}
				return
			}
			if cb != nil {
				cb(data)
			}
			loop()
		})
	}
	loop()
}
