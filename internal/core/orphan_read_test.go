package core_test

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/posix"
)

// t-orphan-parent makes a pipe, or (argv[2] "socket") a connected
// socket pair, and spawns t-orphan-reader (argv[1]) with its read end as
// stdin, passing it argv[3] ("read" or "readv"). It waits for the child
// to die, then writes "ping" into the write end and reads it back
// itself: the bytes must reach the live reader, not the read the dead
// child left parked.
func init() {
	posix.Register(&posix.Program{Name: "t-orphan-parent", Main: func(p posix.Proc) int {
		args := p.Args()
		r, w, err := p.Pipe()
		if args[2] == "socket" {
			r, w, err = socketPair(p, 9301)
		}
		if err != abi.OK {
			return 1
		}
		pid, err := p.Spawn(args[1], []string{"t-orphan-reader", args[3]}, nil, []int{r, abi.Stdout, abi.Stderr})
		if err != abi.OK {
			return 2
		}
		if _, _, err := p.Wait4(pid, 0); err != abi.OK {
			return 3
		}
		if n, err := p.Write(w, []byte("ping")); err != abi.OK || n != 4 {
			return 4
		}
		b, err := p.Read(r, 64)
		if err != abi.OK {
			return 5
		}
		posix.Fprintf(p, abi.Stdout, "%s\n", b)
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-orphan-reader", Main: func(p posix.Proc) int {
		if p.Args()[1] == "readv" {
			p.Readv(abi.Stdin, []int{64})
		} else {
			p.Read(abi.Stdin, 64)
		}
		return 0
	}})
}

// socketPair listens on port, connects to it and accepts, returning the
// accepted end (r) and the connecting end (w).
func socketPair(p posix.Proc, port int) (r, w int, err abi.Errno) {
	l, err := p.Socket()
	if err != abi.OK {
		return -1, -1, err
	}
	if err := p.Bind(l, port); err != abi.OK {
		return -1, -1, err
	}
	if err := p.Listen(l, 1); err != abi.OK {
		return -1, -1, err
	}
	if w, err = p.Socket(); err != abi.OK {
		return -1, -1, err
	}
	if err := p.Connect(w, port); err != abi.OK {
		return -1, -1, err
	}
	r, err = p.Accept(l)
	return r, w, err
}

// TestKilledReaderLosesNoPipeBytes: a read or readv parked on a pipe or
// a socket by a process that is then killed does not take the next
// write's bytes. The ends stay open in the parent, which writes 4 bytes
// once the reader is dead and must read them back, on both transports
// of the reader.
func TestKilledReaderLosesNoPipeBytes(t *testing.T) {
	for _, tr := range transports {
		for _, file := range []string{"pipe", "socket"} {
			for _, op := range []string{"read", "readv"} {
				t.Run(tr.String()+"/"+file+"/"+op, func(t *testing.T) {
					killParkedReader(t, tr, file, op)
				})
			}
		}
	}
}

func killParkedReader(t *testing.T, tr transport, file, op string) {
	w := boot(t)
	w.install(t, "/usr/bin/t-orphan-parent", "t-orphan-parent", tr.kind())
	w.install(t, "/usr/bin/t-orphan-reader", "t-orphan-reader", tr.kind())
	code := -1
	var out []byte
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() {
		w.k.StartProcess(core.ProcSpec{
			Argv:     []string{"/usr/bin/t-orphan-parent", "/usr/bin/t-orphan-reader", file, op},
			OnExit:   func(_, c int) { code = c },
			OnStdout: func(b []byte) { out = append(out, b...) },
		})
	})
	w.sim.Run() // the reader parks in its read, the parent in wait4
	reader := -1
	for _, task := range w.k.Tasks() {
		if task.Path == "/usr/bin/t-orphan-reader" {
			reader = task.Pid
		}
	}
	if reader < 0 || code != -1 {
		t.Fatalf("reader pid %d, parent exit %d; want a parked reader and a waiting parent", reader, code)
	}
	var kerr abi.Errno = -1
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() { kerr = w.k.Kill(reader, abi.SIGKILL) })
	w.sim.Run()
	if kerr != abi.OK {
		t.Fatalf("kill reader: %v", kerr)
	}
	if code != 0 || string(out) != "ping\n" {
		t.Fatalf("parent exit %d, output %q; want 0 and the 4 bytes read back (blocked: %v)", code, out, w.sim.BlockedCtxs())
	}
}
