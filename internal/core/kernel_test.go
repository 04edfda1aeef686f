package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/posix"
	"repro/internal/rt"
	"repro/internal/sched"
)

// Test programs, registered once. They play the role of the compiled-to-JS
// binaries the paper runs.
func init() {
	posix.Register(&posix.Program{Name: "t-echo", Main: func(p posix.Proc) int {
		posix.WriteString(p, abi.Stdout, strings.Join(p.Args()[1:], " ")+"\n")
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-cat", Main: func(p posix.Proc) int {
		posix.CopyFd(p, abi.Stdout, abi.Stdin)
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-fail", Main: func(p posix.Proc) int {
		posix.WriteString(p, abi.Stderr, "boom\n")
		return 42
	}})
	posix.Register(&posix.Program{Name: "t-fsops", Main: func(p posix.Proc) int {
		if err := p.Mkdir("/work", 0o755); err != abi.OK {
			return 1
		}
		if err := posix.WriteFile(p, "/work/a.txt", []byte("alpha"), 0o644); err != abi.OK {
			return 2
		}
		if err := p.Rename("/work/a.txt", "/work/b.txt"); err != abi.OK {
			return 3
		}
		b, err := posix.ReadFile(p, "/work/b.txt")
		if err != abi.OK || string(b) != "alpha" {
			return 4
		}
		st, err := p.Stat("/work/b.txt")
		if err != abi.OK || st.Size != 5 {
			return 5
		}
		if _, err := p.Stat("/work/missing"); err != abi.ENOENT {
			return 6
		}
		ents, err := p.Getdents(mustOpen(p, "/work"))
		if err != abi.OK || len(ents) != 1 || ents[0].Name != "b.txt" {
			return 7
		}
		if err := p.Unlink("/work/b.txt"); err != abi.OK {
			return 8
		}
		if err := p.Rmdir("/work"); err != abi.OK {
			return 9
		}
		cwd, _ := p.Getcwd()
		posix.Fprintf(p, abi.Stdout, "fsok cwd=%s runtime=%s\n", cwd, p.RuntimeName())
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-spawner", Main: func(p posix.Proc) int {
		pid, err := p.Spawn("/usr/bin/t-echo", []string{"t-echo", "from", "child"}, p.Environ(), nil)
		if err != abi.OK {
			return 1
		}
		wpid, status, err := p.Wait4(pid, 0)
		if err != abi.OK || wpid != pid {
			return 2
		}
		posix.Fprintf(p, abi.Stdout, "child=%d code=%d\n", pid, abi.WEXITSTATUS(status))
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-pipeline", Main: func(p posix.Proc) int {
		// echo | cat, wired with pipes and fd inheritance.
		r, w, err := p.Pipe()
		if err != abi.OK {
			return 1
		}
		p1, err := p.Spawn("/usr/bin/t-echo", []string{"t-echo", "through", "pipe"}, nil, []int{0, w, 2})
		if err != abi.OK {
			return 2
		}
		p2, err := p.Spawn("/usr/bin/t-cat", []string{"t-cat"}, nil, []int{r, 1, 2})
		if err != abi.OK {
			return 3
		}
		p.Close(r)
		p.Close(w)
		p.Wait4(p1, 0)
		p.Wait4(p2, 0)
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-sigwait", Main: func(p posix.Proc) int {
		p.Signal(abi.SIGTERM, func(sig int) {
			posix.WriteString(p, abi.Stdout, "caught SIGTERM\n")
			p.Exit(3)
		})
		posix.WriteString(p, abi.Stdout, "ready\n")
		// Block forever on a pipe that never produces data.
		r, _, _ := p.Pipe()
		p.Read(r, 1)
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-server", Main: func(p posix.Proc) int {
		fd, _ := p.Socket()
		if err := p.Bind(fd, 8080); err != abi.OK {
			return 1
		}
		if err := p.Listen(fd, 5); err != abi.OK {
			return 2
		}
		conn, err := p.Accept(fd)
		if err != abi.OK {
			return 3
		}
		req, _ := p.Read(conn, 1024)
		posix.WriteAll(p, conn, []byte("pong:"+string(req)))
		p.Close(conn)
		p.Close(fd)
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-client", Main: func(p posix.Proc) int {
		fd, _ := p.Socket()
		if err := p.Connect(fd, 8080); err != abi.OK {
			return 1
		}
		posix.WriteAll(p, fd, []byte("ping"))
		resp, _ := p.Read(fd, 1024)
		posix.WriteString(p, abi.Stdout, string(resp)+"\n")
		p.Close(fd)
		return 0
	}})
	posix.Register(&posix.Program{
		Name: "t-forker",
		Main: func(p posix.Proc) int {
			pid, err := p.Fork("after-fork", []byte("forked-state"))
			if err != abi.OK {
				posix.Fprintf(p, abi.Stdout, "fork failed: %v\n", err)
				return 1
			}
			wpid, status, werr := p.Wait4(pid, 0)
			if werr != abi.OK || wpid != pid {
				return 2
			}
			posix.Fprintf(p, abi.Stdout, "parent: child=%d code=%d\n", pid, abi.WEXITSTATUS(status))
			return 0
		},
		ResumeFork: func(p posix.Proc, mem []byte, label string) int {
			posix.WriteFile(p, "/fork-evidence.txt", []byte(label+":"+string(mem)), 0o644)
			return 7
		},
	})
	posix.Register(&posix.Program{Name: "t-execer", Main: func(p posix.Proc) int {
		err := p.Exec("/usr/bin/t-echo", []string{"t-echo", "post-exec"}, p.Environ())
		// Only reached on failure.
		posix.Fprintf(p, abi.Stderr, "exec failed: %v\n", err)
		return 1
	}})
	posix.Register(&posix.Program{Name: "t-zombie-child", Main: func(p posix.Proc) int {
		return 5
	}})
	posix.Register(&posix.Program{Name: "t-fileops2", Main: func(p posix.Proc) int {
		// llseek + pread/pwrite.
		fd, err := p.Open("/f2", abi.O_RDWR|abi.O_CREAT, 0o644)
		if err != abi.OK {
			return 1
		}
		if _, err := p.Write(fd, []byte("0123456789")); err != abi.OK {
			return 2
		}
		if off, err := p.Seek(fd, 2, abi.SEEK_SET); err != abi.OK || off != 2 {
			return 3
		}
		if b, err := p.Read(fd, 3); err != abi.OK || string(b) != "234" {
			return 4
		}
		if off, err := p.Seek(fd, -2, abi.SEEK_END); err != abi.OK || off != 8 {
			return 5
		}
		if _, err := p.Pwrite(fd, []byte("XY"), 4); err != abi.OK {
			return 6
		}
		if b, err := p.Pread(fd, 2, 4); err != abi.OK || string(b) != "XY" {
			return 7
		}
		// ftruncate.
		if err := p.Ftruncate(fd, 5); err != abi.OK {
			return 8
		}
		if st, err := p.Fstat(fd); err != abi.OK || st.Size != 5 {
			return 9
		}
		p.Close(fd)
		// dup2: writes through the duplicate land in the same file with a
		// shared offset.
		fd2, _ := p.Open("/dup.txt", abi.O_WRONLY|abi.O_CREAT, 0o644)
		if err := p.Dup2(fd2, 9); err != abi.OK {
			return 10
		}
		p.Write(fd2, []byte("via-orig "))
		p.Write(9, []byte("via-dup"))
		p.Close(fd2)
		p.Close(9)
		if b, err := posix.ReadFile(p, "/dup.txt"); err != abi.OK || string(b) != "via-orig via-dup" {
			return 11
		}
		// symlink/readlink + rename.
		if err := p.Symlink("/dup.txt", "/link"); err != abi.OK {
			return 12
		}
		if target, err := p.Readlink("/link"); err != abi.OK || target != "/dup.txt" {
			return 13
		}
		if b, err := posix.ReadFile(p, "/link"); err != abi.OK || string(b) != "via-orig via-dup" {
			return 14
		}
		if err := p.Rename("/dup.txt", "/renamed.txt"); err != abi.OK {
			return 15
		}
		if _, err := p.Stat("/renamed.txt"); err != abi.OK {
			return 16
		}
		// O_APPEND honours end-of-file on every write.
		afd, _ := p.Open("/renamed.txt", abi.O_WRONLY|abi.O_APPEND, 0)
		p.Write(afd, []byte("+app"))
		p.Close(afd)
		if b, _ := posix.ReadFile(p, "/renamed.txt"); string(b) != "via-orig via-dup+app" {
			return 17
		}
		posix.WriteString(p, abi.Stdout, "fileops2 ok\n")
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-reaper", Main: func(p posix.Proc) int {
		pid, _ := p.Spawn("/usr/bin/t-zombie-child", []string{"t-zombie-child"}, nil, nil)
		// Child exits quickly; give it time by spinning on WNOHANG until
		// it reaps (exercises the zombie state).
		for i := 0; i < 1000; i++ {
			wpid, status, err := p.Wait4(pid, abi.WNOHANG)
			if err != abi.OK {
				return 1
			}
			if wpid == pid {
				posix.Fprintf(p, abi.Stdout, "reaped=%d code=%d tries>0=%v\n",
					wpid, abi.WEXITSTATUS(status), i > 0)
				return 0
			}
			p.CPU(1000_000) // 1ms of spinning
		}
		return 2
	}})
}

func mustOpen(p posix.Proc, path string) int {
	fd, err := p.Open(path, abi.O_RDONLY, 0)
	if err != abi.OK {
		p.Exit(100)
	}
	return fd
}

// world is a booted Browsix instance for tests.
type world struct {
	sim *sched.Sim
	sys *browser.System
	k   *core.Kernel
	fs  *fs.FileSystem
}

func boot(t testing.TB) *world {
	t.Helper()
	sim := sched.New()
	sim.MaxSteps = 5_000_000
	sys := browser.NewSystem(sim, browser.Chrome())
	clock := func() int64 { return sim.Now() }
	root := fs.NewMemFS(clock)
	fsys := fs.NewFileSystem(root, clock)
	k := core.NewKernel(sys, fsys, rt.Loader(sys))
	w := &world{sim: sim, sys: sys, k: k, fs: fsys}
	w.mkdirAll(t, "/usr/bin")
	w.mkdirAll(t, "/bin")
	for _, prog := range []string{"t-echo", "t-cat", "t-fail", "t-fsops", "t-spawner",
		"t-pipeline", "t-sigwait", "t-server", "t-client", "t-execer",
		"t-zombie-child", "t-reaper", "t-fileops2"} {
		w.install(t, "/usr/bin/"+prog, prog, rt.NodeKind)
	}
	w.install(t, "/usr/bin/t-forker", "t-forker", rt.EmAsyncKind)
	return w
}

// transport is how a test program's calls reach the kernel: the Node
// runtime's async messages, or the em-sync runtime's shared heap and
// its ring.
type transport int

const (
	async transport = iota
	ring
)

// transports lists every transport in the order differentials compare
// them: the first is the reference.
var transports = []transport{async, ring}

func (tr transport) String() string { return [...]string{"async", "ring"}[tr] }

// kind is the runtime a program is installed as to travel tr.
func (tr transport) kind() rt.Kind {
	if tr == async {
		return rt.NodeKind
	}
	return rt.EmSyncKind
}

// variant is one configuration of a differential: a transport and the
// mechanisms switched off.
type variant struct {
	tr transport
	ft fs.Features
}

// variants enumerates trs × every subset of axes, each axis a Features
// value with the switches it turns off. Per transport the all-on variant
// comes first. A new Features field becomes an axis by naming it here.
func variants(trs []transport, axes ...fs.Features) []variant {
	var vs []variant
	for _, tr := range trs {
		for set := 0; set < 1<<len(axes); set++ {
			v := variant{tr: tr}
			ft := reflect.ValueOf(&v.ft).Elem()
			for i, ax := range axes {
				if set>>i&1 == 0 {
					continue
				}
				off := reflect.ValueOf(ax)
				for f := 0; f < off.NumField(); f++ {
					if off.Field(f).Bool() {
						ft.Field(f).SetBool(true)
					}
				}
			}
			vs = append(vs, v)
		}
	}
	return vs
}

// String names v by its transport and the switches it turns off.
func (v variant) String() string {
	name, ft := v.tr.String(), reflect.ValueOf(v.ft)
	for f := 0; f < ft.NumField(); f++ {
		if ft.Field(f).Bool() {
			name += "/" + ft.Type().Field(f).Name
		}
	}
	return name
}

// boot boots a world running v's features.
func (v variant) boot(t testing.TB) *world {
	w := boot(t)
	w.fs.SetFeatures(v.ft)
	return w
}

func (w *world) mkdirAll(t testing.TB, p string) {
	t.Helper()
	w.fs.MkdirAll(p, 0o755, func(err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("mkdirall %s: %v", p, err)
		}
	})
}

// readFile reads p through the VFS from the host side, as a fresh
// reader would see it; memfs completes inline.
func (w *world) readFile(t testing.TB, p string) []byte {
	t.Helper()
	var out []byte
	done := false
	w.fs.ReadFile(p, func(b []byte, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("read %s: %v", p, err)
		}
		out, done = b, true
	})
	if !done {
		t.Fatalf("read %s did not complete inline", p)
	}
	return out
}

func (w *world) install(t testing.TB, path, prog string, kind rt.Kind) {
	t.Helper()
	// Small artifact size keeps unit-test sims fast; benchmarks use
	// realistic sizes.
	data := posix.Executable(prog, string(kind), 4096)
	w.fs.WriteFile(path, data, 0o755, func(err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("install %s: %v", path, err)
		}
	})
}

// run launches a command line via StartProcess and drives the simulation
// until it exits, returning exit code and captured output. A launch
// failure reads as exit 127, as system(3) reports it.
func (w *world) run(t testing.TB, cmdline string) (int, string, string) {
	t.Helper()
	var stdout, stderr []byte
	code := -1
	done := false
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() {
		w.k.StartProcess(core.ProcSpec{
			Argv: core.SplitCmdline(cmdline),
			OnStart: func(pid int, err abi.Errno) {
				if err != abi.OK {
					code, done = 127, true
				}
			},
			OnExit:   func(pid, c int) { code = c; done = true },
			OnStdout: func(b []byte) { stdout = append(stdout, b...) },
			OnStderr: func(b []byte) { stderr = append(stderr, b...) },
		})
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatalf("run(%q) never exited; blocked ctxs: %v\n%s", cmdline, w.sim.BlockedCtxs(), w.sim.Dump())
	}
	// Let output pumps drain.
	w.sim.Run()
	return code, string(stdout), string(stderr)
}

func TestSystemRunsEcho(t *testing.T) {
	w := boot(t)
	code, out, _ := w.run(t, "/usr/bin/t-echo hello browsix")
	if code != 0 || out != "hello browsix\n" {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestExitCodeAndStderr(t *testing.T) {
	w := boot(t)
	code, out, errOut := w.run(t, "/usr/bin/t-fail")
	if code != 42 {
		t.Fatalf("code=%d, want 42", code)
	}
	if out != "" || errOut != "boom\n" {
		t.Fatalf("out=%q err=%q", out, errOut)
	}
}

func TestFileSyscallsAsyncRuntime(t *testing.T) {
	w := boot(t)
	code, out, _ := w.run(t, "/usr/bin/t-fsops")
	if code != 0 {
		t.Fatalf("t-fsops exit=%d out=%q", code, out)
	}
	if !strings.Contains(out, "fsok cwd=/ runtime=node") {
		t.Fatalf("out=%q", out)
	}
	if w.k.AsyncSyscalls.Load() == 0 || w.k.SyncSyscalls.Load() != 0 {
		t.Fatalf("async=%d sync=%d", w.k.AsyncSyscalls.Load(), w.k.SyncSyscalls.Load())
	}
}

func TestFileSyscallsSyncRuntime(t *testing.T) {
	w := boot(t)
	w.install(t, "/usr/bin/t-fsops-sync", "t-fsops", rt.EmSyncKind)
	code, out, _ := w.run(t, "/usr/bin/t-fsops-sync")
	if code != 0 {
		t.Fatalf("sync t-fsops exit=%d out=%q", code, out)
	}
	if !strings.Contains(out, "runtime=em-sync") {
		t.Fatalf("out=%q", out)
	}
	if w.k.SyncSyscalls.Load() == 0 {
		t.Fatal("no synchronous syscalls recorded")
	}
}

func TestFileOps2BothTransports(t *testing.T) {
	w := boot(t)
	code, out, errOut := w.run(t, "/usr/bin/t-fileops2")
	if code != 0 || out != "fileops2 ok\n" {
		t.Fatalf("async: code=%d out=%q err=%q", code, out, errOut)
	}
	// Same program on the synchronous transport (fresh world: the files
	// it creates must not collide).
	w2 := boot(t)
	w2.install(t, "/usr/bin/t-fileops2-sync", "t-fileops2", rt.EmSyncKind)
	code, out, errOut = w2.run(t, "/usr/bin/t-fileops2-sync")
	if code != 0 || out != "fileops2 ok\n" {
		t.Fatalf("sync: code=%d out=%q err=%q", code, out, errOut)
	}
}

// TestSpawnRevokesBlobURLs: each cold spawn's executable Blob URL is
// revoked once its worker starts, so the blob store stays flat however
// many processes run.
func TestSpawnRevokesBlobURLs(t *testing.T) {
	w := boot(t)
	w.run(t, "/usr/bin/t-echo warm")
	base := w.sys.LiveBlobs()
	for i := 0; i < 5; i++ {
		if code, out, _ := w.run(t, "/usr/bin/t-spawner"); code != 0 {
			t.Fatalf("t-spawner exited %d (%q)", code, out)
		}
	}
	if got := w.sys.LiveBlobs(); got != base {
		t.Fatalf("blob store grew from %d to %d URLs over 10 spawns", base, got)
	}
}

func TestSpawnAndWait4(t *testing.T) {
	w := boot(t)
	code, out, _ := w.run(t, "/usr/bin/t-spawner")
	if code != 0 || !strings.Contains(out, "code=0") {
		t.Fatalf("code=%d out=%q", code, out)
	}
	// The child's stdout was inherited, so its output appears too.
	if !strings.Contains(out, "from child\n") {
		t.Fatalf("child stdout missing: %q", out)
	}
}

func TestPipelineThroughPipes(t *testing.T) {
	w := boot(t)
	code, out, _ := w.run(t, "/usr/bin/t-pipeline")
	if code != 0 || !strings.Contains(out, "through pipe\n") {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestZombieReaping(t *testing.T) {
	w := boot(t)
	code, out, _ := w.run(t, "/usr/bin/t-reaper")
	if code != 0 || !strings.Contains(out, "code=5") {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestSignalHandlerAndKill(t *testing.T) {
	w := boot(t)
	var stdout []byte
	code := -1
	var pid int
	done := false
	w.sim.Post(w.sys.Main.Sched(), 0, func() {
		w.k.StartProcess(core.ProcSpec{
			Argv:     []string{"/usr/bin/t-sigwait"},
			OnExit:   func(p, c int) { code = c; done = true },
			OnStdout: func(b []byte) { stdout = append(stdout, b...) },
		})
	})
	w.sim.RunUntil(func() bool { return strings.Contains(string(stdout), "ready\n") })
	// Find the process and signal it, as the LaTeX editor's cancel
	// button does.
	for _, task := range w.k.Tasks() {
		if strings.Contains(task.Path, "t-sigwait") {
			pid = task.Pid
		}
	}
	if pid == 0 {
		t.Fatal("t-sigwait task not found")
	}
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() {
		if err := w.k.Kill(pid, abi.SIGTERM); err != abi.OK {
			t.Errorf("kill: %v", err)
		}
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatalf("process never exited after SIGTERM\n%s", w.sim.Dump())
	}
	if code != 3 || !strings.Contains(string(stdout), "caught SIGTERM") {
		t.Fatalf("code=%d out=%q", code, stdout)
	}
}

func TestSIGKILLUncatchable(t *testing.T) {
	w := boot(t)
	var stdout []byte
	code := -1
	done := false
	w.sim.Post(w.sys.Main.Sched(), 0, func() {
		w.k.StartProcess(core.ProcSpec{
			Argv:     []string{"/usr/bin/t-sigwait"},
			OnExit:   func(p, c int) { code = c; done = true },
			OnStdout: func(b []byte) { stdout = append(stdout, b...) },
		})
	})
	w.sim.RunUntil(func() bool { return strings.Contains(string(stdout), "ready\n") })
	var pid int
	for _, task := range w.k.Tasks() {
		if strings.Contains(task.Path, "t-sigwait") {
			pid = task.Pid
		}
	}
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() {
		w.k.Kill(pid, abi.SIGKILL)
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatal("process survived SIGKILL")
	}
	if code != 128+abi.SIGKILL {
		t.Fatalf("code=%d, want %d", code, 128+abi.SIGKILL)
	}
	if strings.Contains(string(stdout), "caught") {
		t.Fatal("SIGKILL was caught — must be uncatchable")
	}
}

func TestSocketsClientServer(t *testing.T) {
	w := boot(t)
	serverCode, clientCode := -1, -1
	var clientOut []byte
	notified := false
	w.sim.Post(w.sys.Main.Sched(), 0, func() {
		w.k.OnPortListen(8080, func(port int) { notified = true })
		w.k.StartProcess(core.ProcSpec{
			Argv:   []string{"/usr/bin/t-server"},
			OnExit: func(p, c int) { serverCode = c },
		})
	})
	// Start the client only after the socket notification fires —
	// exactly the pattern §4.1 describes.
	w.sim.RunUntil(func() bool { return notified })
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() {
		w.k.StartProcess(core.ProcSpec{
			Argv:     []string{"/usr/bin/t-client"},
			OnExit:   func(p, c int) { clientCode = c },
			OnStdout: func(b []byte) { clientOut = append(clientOut, b...) },
		})
	})
	if !w.sim.RunUntil(func() bool { return serverCode >= 0 && clientCode >= 0 }) {
		t.Fatalf("client/server did not finish\n%s", w.sim.Dump())
	}
	if serverCode != 0 || clientCode != 0 {
		t.Fatalf("server=%d client=%d", serverCode, clientCode)
	}
	if string(clientOut) != "pong:ping\n" {
		t.Fatalf("client out=%q", clientOut)
	}
}

func TestForkEmscriptenAsync(t *testing.T) {
	w := boot(t)
	code, out, _ := w.run(t, "/usr/bin/t-forker")
	if code != 0 {
		t.Fatalf("t-forker exit=%d out=%q", code, out)
	}
	if !strings.Contains(out, "code=7") {
		t.Fatalf("parent did not reap forked child correctly: %q", out)
	}
	var evidence []byte
	w.fs.ReadFile("/fork-evidence.txt", func(b []byte, err abi.Errno) { evidence = b })
	if string(evidence) != "after-fork:forked-state" {
		t.Fatalf("fork snapshot not delivered to child: %q", evidence)
	}
}

func TestForkRefusedOnNonEmscriptenRuntimes(t *testing.T) {
	w := boot(t)
	w.install(t, "/usr/bin/t-forker-node", "t-forker", rt.NodeKind)
	code, out, _ := w.run(t, "/usr/bin/t-forker-node")
	if code != 1 || !strings.Contains(out, "fork failed: ENOSYS") {
		t.Fatalf("fork under node runtime: code=%d out=%q (want ENOSYS failure)", code, out)
	}
}

func TestExecReplacesImage(t *testing.T) {
	w := boot(t)
	code, out, errOut := w.run(t, "/usr/bin/t-execer")
	if code != 0 || out != "post-exec\n" || errOut != "" {
		t.Fatalf("code=%d out=%q err=%q", code, out, errOut)
	}
}

func TestShebangExecution(t *testing.T) {
	w := boot(t)
	script := []byte("#!/usr/bin/t-echo\nthis line is data, not code\n")
	w.fs.WriteFile("/usr/bin/myscript", script, 0o755, func(abi.Errno) {})
	code, out, _ := w.run(t, "/usr/bin/myscript arg1")
	if code != 0 {
		t.Fatalf("code=%d out=%q", code, out)
	}
	// execve semantics: interpreter receives script path then the args.
	if !strings.Contains(out, "/usr/bin/myscript") || !strings.Contains(out, "arg1") {
		t.Fatalf("shebang argv wrong: %q", out)
	}
}

// startErr launches argv and returns the errno StartProcess reports to
// OnStart.
func (w *world) startErr(t testing.TB, argv ...string) abi.Errno {
	t.Helper()
	var got abi.Errno = -1
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() {
		w.k.StartProcess(core.ProcSpec{Argv: argv, OnStart: func(_ int, err abi.Errno) { got = err }})
	})
	if !w.sim.RunUntil(func() bool { return got != -1 }) {
		t.Fatalf("start %q never reported", argv)
	}
	w.sim.Run()
	return got
}

// TestShebangErrors: a "#!" line naming no interpreter is ENOEXEC, and a
// shebang chain deeper than the kernel follows is ELOOP, as in execve.
func TestShebangErrors(t *testing.T) {
	w := boot(t)
	w.fs.WriteFile("/usr/bin/blank", []byte("#! \t \nexit 0\n"), 0o755, func(abi.Errno) {})
	w.fs.WriteFile("/usr/bin/loop", []byte("#!/usr/bin/loop\n"), 0o755, func(abi.Errno) {})
	if got := w.startErr(t, "/usr/bin/blank"); got != abi.ENOEXEC {
		t.Errorf("blank shebang: %v, want ENOEXEC", got)
	}
	if got := w.startErr(t, "/usr/bin/loop"); got != abi.ELOOP {
		t.Errorf("self-referencing shebang: %v, want ELOOP", got)
	}
}

func TestSpawnENOENT(t *testing.T) {
	w := boot(t)
	code, _, _ := w.run(t, "/usr/bin/no-such-binary")
	if code != 127 {
		t.Fatalf("code=%d, want 127", code)
	}
}

func TestSyscallCountsTracked(t *testing.T) {
	w := boot(t)
	w.run(t, "/usr/bin/t-fsops")
	if w.k.SyscallCount["open"] == 0 || w.k.SyscallCount["exit"] == 0 {
		t.Fatalf("syscall accounting missing entries: %v", w.k.SyscallCount)
	}
}

func TestKernelSystemMetacharsUseShell(t *testing.T) {
	w := boot(t)
	// No /bin/sh installed in this world yet: the command must fail
	// with 127 because run routes metachar command lines to the shell.
	code, _, _ := w.run(t, "/usr/bin/t-echo a | /usr/bin/t-cat")
	if code != 127 {
		t.Fatalf("code=%d, want 127 (no /bin/sh staged)", code)
	}
}

func TestTaskDiagnostics(t *testing.T) {
	w := boot(t)
	var stdout []byte
	w.sim.Post(w.sys.Main.Sched(), 0, func() {
		w.k.StartProcess(core.ProcSpec{
			Argv:     []string{"/usr/bin/t-sigwait"},
			OnStdout: func(b []byte) { stdout = append(stdout, b...) },
		})
	})
	w.sim.RunUntil(func() bool { return strings.Contains(string(stdout), "ready") })
	tasks := w.k.Tasks()
	if len(tasks) != 1 {
		t.Fatalf("tasks=%d, want 1", len(tasks))
	}
	task := tasks[0]
	if task.StateName() != "R" || task.Pid == 0 {
		t.Fatalf("task state=%s pid=%d", task.StateName(), task.Pid)
	}
	if got := task.FdPath(1); !strings.Contains(got, "pipe") {
		t.Fatalf("fd1 path=%q", got)
	}
	// Clean up.
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() { w.k.Kill(task.Pid, abi.SIGKILL) })
	w.sim.Run()
}

func TestHostBaselineRunsSamePrograms(t *testing.T) {
	// The same registered program runs under the native host runtime —
	// the property Figure 9's baselines depend on.
	sim := sched.New()
	sim.MaxSteps = 1_000_000
	clock := func() int64 { return sim.Now() }
	fsys := fs.NewFileSystem(fs.NewMemFS(clock), clock)
	res := rt.RunHost(sim, fsys, rt.NativeKind, []string{"t-fsops"}, nil, "/")
	if res.Code != 0 {
		t.Fatalf("host t-fsops exit=%d stderr=%s", res.Code, res.Stderr)
	}
	if !strings.Contains(string(res.Stdout), "runtime=native") {
		t.Fatalf("stdout=%q", res.Stdout)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestBrowsixSlowerThanNative(t *testing.T) {
	// Sanity-check the cost model's *shape*: the same program must be
	// substantially slower under Browsix than under the native host.
	sim := sched.New()
	sim.MaxSteps = 1_000_000
	clock := func() int64 { return sim.Now() }
	fsys := fs.NewFileSystem(fs.NewMemFS(clock), clock)
	native := rt.RunHost(sim, fsys, rt.NativeKind, []string{"t-fsops"}, nil, "/")

	w := boot(t)
	start := w.sys.Main.Now()
	_, _, _ = w.run(t, "/usr/bin/t-fsops")
	browsix := w.sys.Main.Now() - start
	if browsix < 10*native.Elapsed {
		t.Fatalf("browsix=%d native=%d: expected >=10x overhead", browsix, native.Elapsed)
	}
}

func TestPipeBackpressure(t *testing.T) {
	// A writer into a full pipe must block until the reader drains it —
	// the backpressure §6 wants from postMessage.
	p := core.NewPipe()
	writeDone := false
	big := make([]byte, core.PipeCap+100)
	var r1 []byte
	p.Write(big, func(n int, err abi.Errno) { writeDone = true })
	if writeDone {
		t.Fatal("oversized write completed without a reader")
	}
	p.Read(200, func(b []byte, err abi.Errno) { r1 = b })
	if len(r1) != 200 {
		t.Fatalf("read %d bytes", len(r1))
	}
	if !writeDone {
		t.Fatal("write still blocked after drain")
	}
}

func TestPipeEOFAndEPIPE(t *testing.T) {
	r, w := core.NewPipePair()
	d := core.NewDesc(r, abi.O_RDONLY, "r")
	dw := core.NewDesc(w, abi.O_WRONLY, "w")
	var eof bool
	w.Close(func(abi.Errno) {})
	r.Read(d, 10, func(b []byte, err abi.Errno) { eof = err == abi.OK && len(b) == 0 })
	if !eof {
		t.Fatal("no EOF after writer close")
	}
	// EPIPE on write after reader closes.
	r2, w2 := core.NewPipePair()
	r2.Close(func(abi.Errno) {})
	var gotErr abi.Errno
	w2.Write(dw, []byte("x"), func(n int, err abi.Errno) { gotErr = err })
	if gotErr != abi.EPIPE {
		t.Fatalf("err=%v, want EPIPE", gotErr)
	}
}
