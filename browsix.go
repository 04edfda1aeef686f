// Package browsix is the public API of this Browsix reproduction: a
// deterministic, in-process simulation of the paper's system — a Unix
// kernel running on the browser main thread, processes on Web Workers,
// and the web-application-facing APIs of §4.1 grown into an idiomatic Go
// surface.
//
// Two pillars:
//
//   - Process handles. Start(Spec) launches a program with argv,
//     environment, working directory, and standard input, and returns a
//     *Process whose Wait, Signal, and live Stdout/Stderr streams drive
//     the simulation on demand:
//
//     inst := browsix.Boot(browsix.Config{})
//     browsix.InstallBase(inst)
//     p, _ := inst.Start(browsix.Spec{
//     Argv:  []string{"/bin/sh", "-c", "cat /greeting.txt | wc -c"},
//     Stdin: strings.NewReader(""),
//     })
//     out, _ := io.ReadAll(p.Stdout())
//     code, _ := p.Wait()
//
//   - A Go-native file system facade. Instance.FS() returns a view
//     implementing io/fs.FS, fs.ReadDirFS, fs.StatFS, fs.ReadFileFS and
//     fs.GlobFS over the kernel's VFS (memfs, zipfs, httpfs, overlay —
//     whatever is mounted), plus write-side extensions (WriteFile,
//     MkdirAll, Remove, Rename, Symlink):
//
//     inst.FS().WriteFile("greeting.txt", []byte("hello\n"), 0o644)
//     data, _ := fs.ReadFile(inst.FS(), "greeting.txt")
//
// Every synchronous helper posts its work to the simulated browser main
// thread (where the kernel lives) and drives the simulation until the
// operation completes, so plain straight-line Go code interacts with the
// CPS kernel underneath. Time inside the instance is virtual and fully
// deterministic; see EXPERIMENTS.md for how it is calibrated to the
// paper's measurements.
package browsix

import (
	"sort"
	"strings"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/coreutils"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/shell"
	"repro/internal/snapshot"
)

// Errno re-exports the kernel error type for API users.
type Errno = abi.Errno

// Config controls Boot.
type Config struct {
	// Browser selects the cost profile; default Chrome (the only
	// browser supporting synchronous syscalls at paper time).
	Browser *browser.Profile
	// MaxSteps bounds the simulation (0 = default guard).
	MaxSteps uint64
	// PagePool, when non-nil, attaches this instance's page cache to a
	// shared arena — the fleet's one cross-shard structure — instead of
	// a private pool. Each instance draws slots from its own quota of
	// fs.DefaultPoolSlots, the private pool's capacity, so its cache
	// behaviour (and therefore its virtual clock) stays bit-identical to
	// a private-pool boot.
	PagePool *fs.PagePool
	// EnableSnapshots turns on the checkpoint/fork subsystem
	// (internal/snapshot) with a private registry: the first boot of
	// each runtime captures a post-boot image, and every later spawn of
	// the same executable boots as a copy-on-write clone of it.
	EnableSnapshots bool
	// Snapshots attaches an existing registry instead — the fleet path:
	// instances share one pre-warmed, sealed registry whose image pages
	// live in the shared arena. Implies EnableSnapshots.
	Snapshots *snapshot.Registry
	// Features turns optional file-system mechanisms off; the zero
	// value runs them all. See Features.
	Features Features
}

// Features selects which data-path mechanisms an instance's file system
// runs: the VFS caches (NoCaches) and page dedup (NoDedup). The zero
// value is production: every mechanism on. Each field turns one off for
// differentials and ablations; none changes a program's output. Every
// write reaches its backend before it returns, whatever the features.
type Features = fs.Features

// DefaultSnapshotSlots is the image-store quota for captured snapshot
// pages: room for a few sync-runtime heap images (a 1 MiB heap is 256
// slots).
const DefaultSnapshotSlots = 2048

// Instance is one booted browser + Browsix kernel.
type Instance struct {
	Sim     *sched.Sim
	Browser *browser.System
	Kernel  *core.Kernel
	// VFS is the kernel-side mount table (CPS API). Web applications
	// should prefer the synchronous io/fs facade returned by FS().
	VFS *fs.FileSystem
	Net *netsim.Net
}

// Boot creates a browser page with a Browsix kernel, an empty in-memory
// root file system, and a simulated network — the `Boot(...)` call of
// §2.2's setup code.
func Boot(cfg Config) *Instance {
	sim := sched.New()
	if cfg.MaxSteps > 0 {
		sim.MaxSteps = cfg.MaxSteps
	} else {
		sim.MaxSteps = 200_000_000
	}
	prof := browser.Chrome()
	if cfg.Browser != nil {
		prof = *cfg.Browser
	}
	sys := browser.NewSystem(sim, prof)
	clock := func() int64 { return sim.Now() }
	fsys := fs.NewFileSystem(fs.NewMemFS(clock), clock)
	if cfg.PagePool != nil {
		fsys.SetPagePool(cfg.PagePool, fs.DefaultPoolSlots)
	}
	k := core.NewKernel(sys, fsys, rt.Loader(sys))
	fsys.SetFeatures(cfg.Features)
	if cfg.Snapshots != nil || cfg.EnableSnapshots {
		reg := cfg.Snapshots
		if reg == nil {
			reg = snapshot.NewRegistry()
		}
		// First store wins inside the registry: a fleet's shared
		// registry keeps the arena store its pre-warm instance attached.
		reg.SetStore(fsys.ImageStore(DefaultSnapshotSlots))
		k.Snapshots = reg
	}
	return &Instance{
		Sim:     sim,
		Browser: sys,
		Kernel:  k,
		VFS:     fsys,
		Net:     netsim.New(sim),
	}
}

// Main schedules fn on the browser main thread (where the kernel and the
// web application live); most kernel APIs must be invoked from there.
func (in *Instance) Main(fn func()) {
	in.Sim.Post(in.Browser.Main.Sched(), in.Browser.Main.Now(), fn)
}

// Run drives the simulation until quiescent.
func (in *Instance) Run() { in.Sim.Run() }

// RunUntil drives the simulation until cond holds; reports success.
func (in *Instance) RunUntil(cond func() bool) bool { return in.Sim.RunUntil(cond) }

// Now returns current virtual time in nanoseconds (max across contexts).
func (in *Instance) Now() int64 { return in.Sim.Now() }

// drive is the one synchronous-helper primitive: it posts fn to the
// browser main thread and runs the simulation until fn reports
// completion via the done callback it is handed. Every *Sync convenience
// in the package funnels through it, so main-thread scheduling is
// uniform. It reports false when the simulation quiesced without fn
// completing (a deadlock).
func (in *Instance) drive(fn func(done func())) bool {
	finished := false
	in.Main(func() { fn(func() { finished = true }) })
	return in.Sim.RunUntil(func() bool { return finished })
}

// Kill sends a signal to a process (the LaTeX editor's cancel button).
// It may be called from host code or from inside a Main event.
func (in *Instance) Kill(pid, sig int) Errno {
	if in.Sim.Cur() != nil {
		// Already inside a simulator event (a Main callback, an
		// OnListen notification, ...): call straight into the kernel.
		// Nesting a drive() here would re-enter the scheduler and
		// clear the enclosing event's context.
		return in.Kernel.Kill(pid, sig)
	}
	var out Errno = -1
	if !in.drive(func(done func()) {
		out = in.Kernel.Kill(pid, sig)
		done()
	}) {
		return abi.ESRCH
	}
	return out
}

// OnListen registers a socket notification (§4.1): cb fires when a
// process starts listening on port.
func (in *Instance) OnListen(port int, cb func(port int)) {
	in.Main(func() { in.Kernel.OnPortListen(port, cb) })
}

// Snapshots returns the instance's snapshot registry (nil when the
// subsystem is off).
func (in *Instance) Snapshots() *snapshot.Registry { return in.Kernel.Snapshots }

// CheckpointLive checkpoints a running process with bounded pause —
// iterative pre-copy over the soft-dirty bitmap while the guest keeps
// running, then a short final stop-copy — and returns the diagnostics
// dump. It drives the simulation until the checkpoint completes.
func (in *Instance) CheckpointLive(pid int) (*snapshot.Dump, Errno) {
	var dump *snapshot.Dump
	var out Errno = -1
	if !in.drive(func(done func()) {
		in.Kernel.CheckpointLive(pid, func(d *snapshot.Dump, err Errno) {
			dump, out = d, err
			done()
		})
	}) {
		return nil, abi.ESRCH
	}
	return dump, out
}

// ---------------------------------------------------------------------------
// Image staging.
// ---------------------------------------------------------------------------

func posixDir(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// InstallBase stages the standard image: the Node-runtime coreutils of
// §5.1.2 in /usr/bin, the dash shell (Emterpreter runtime, as compiled in
// the paper) at /bin/sh and /bin/dash, plus the usual directory skeleton.
//
// Staged executables are shared, read-only bytes: every Instance in the
// host process aliases one artifact per program and runtime, and a file
// is copied only before its first in-place write.
func InstallBase(in *Instance) {
	for _, d := range []string{"bin", "usr/bin", "tmp", "etc", "home"} {
		if err := in.FS().MkdirAll(d, 0o755); err != nil {
			panic("browsix: install /" + d + ": " + err.Error())
		}
	}
	image := map[string][]byte{
		// dash is a C program: Emterpreter + async syscalls (it forks).
		"/bin/sh":   rt.Artifact("sh", rt.EmAsyncKind),
		"/bin/dash": rt.Artifact("dash", rt.EmAsyncKind),
		"/etc/motd": []byte("Browsix (Go reproduction) — Unix in your browser\n"),
	}
	for _, name := range append(coreutils.Names(), "test", "[", "exec") {
		image["/usr/bin/"+name] = rt.Artifact(name, rt.NodeKind)
	}
	stageImage(in, image, 0o755)
	_ = shell.Main // ensure the shell package is linked (programs register via init)
}

// InstallWasmCoreutils restages /usr/bin with synchronous-runtime (wasm)
// builds of the coreutils, so every utility syscall travels the sync
// transport — the staging the sync-transport case studies, the snapshot
// diagnostics, and the fleet COW tests use.
func InstallWasmCoreutils(in *Instance) {
	image := map[string][]byte{}
	for _, name := range coreutils.Names() {
		image["/usr/bin/"+name] = rt.Artifact(name, rt.WasmKind)
	}
	stageImage(in, image, 0o644)
}

// stageImage writes image (absolute path -> bytes) into in's file system
// by reference (fs.FileSystem.WriteFileShared): the caller never mutates
// the bytes. Paths are staged in sorted order, so inode numbers are the
// same on every boot; each distinct parent directory is created once;
// and the whole batch runs in one drive. A file that already exists
// keeps its mode; mode applies to new files.
func stageImage(in *Instance, image map[string][]byte, mode uint32) {
	paths := make([]string, 0, len(image))
	for p := range image {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	made := map[string]bool{}
	var failed string
	var ferr Errno
	ok := in.drive(func(done func()) {
		var step func(i int)
		step = func(i int) {
			if i == len(paths) {
				done()
				return
			}
			p := paths[i]
			check := func(err Errno, next func()) {
				if err != abi.OK {
					failed, ferr = p, err
					done()
					return
				}
				next()
			}
			write := func() {
				in.VFS.WriteFileShared(p, image[p], mode, func(err Errno) {
					check(err, func() { step(i + 1) })
				})
			}
			if dir := posixDir(p); !made[dir] {
				made[dir] = true
				in.VFS.MkdirAll(dir, 0o755, func(err Errno) { check(err, write) })
				return
			}
			write()
		}
		step(0)
	})
	if !ok {
		panic("browsix: staging deadlocked")
	}
	if failed != "" {
		panic("browsix: staging " + failed + " failed: " + ferr.Error())
	}
}
