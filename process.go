package browsix

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/abi"
	"repro/internal/core"
)

// This file is the process-handle half of the public API (§4.1 grown
// idiomatic): Start(Spec) launches a Browsix process and returns a
// *Process whose methods drive the simulation on demand.

// Spec describes a process to launch.
type Spec struct {
	// Argv is the argument vector. Argv[0] is the program: an absolute
	// path, a path relative to Dir, or a bare name resolved against the
	// environment's PATH.
	Argv []string
	// Env is the child environment ("KEY=value"); nil selects the
	// default Browsix environment (PATH, HOME, TERM, USER).
	Env []string
	// Dir is the working directory; "" means "/".
	Dir string
	// Stdin, when non-nil, is pumped into the guest through the kernel
	// pipe layer with backpressure; its EOF becomes EOF on the guest's
	// standard input. A read returning 0 bytes with a nil error is
	// treated as EOF.
	Stdin io.Reader
	// Interactive keeps standard input open beyond Stdin (or with no
	// Stdin at all): feed it incrementally with Process.WriteStdin and
	// finish with Process.CloseStdin. When both Stdin and Interactive
	// are unset the guest sees immediate EOF.
	Interactive bool
	// Stdout/Stderr, when non-nil, receive that stream as it is
	// produced instead of buffering it for the Process.Stdout/Stderr
	// readers.
	Stdout io.Writer
	Stderr io.Writer
}

// Process is a handle on a launched Browsix process.
type Process struct {
	// Pid is the kernel process ID.
	Pid int

	in      *Instance
	argv0   string
	console *core.Console
	stdout  *stream
	stderr  *stream
	exited  bool
	code    int
	waited  bool
}

// ErrDeadlock reports that the simulation went quiescent before the
// awaited operation could complete: some context is blocked forever.
// BlockedCtxs names the stuck scheduler contexts, as Sim.BlockedCtxs
// reported them.
type ErrDeadlock struct {
	Op          string
	BlockedCtxs []string
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("browsix: %s deadlocked; blocked ctxs: %s", e.Op, e.ctxList())
}

func (e *ErrDeadlock) ctxList() string {
	if len(e.BlockedCtxs) == 0 {
		return "(none futex-blocked)"
	}
	return strings.Join(e.BlockedCtxs, ", ")
}

// deadlockErr snapshots the blocked contexts for an ErrDeadlock.
func (in *Instance) deadlockErr(op string) *ErrDeadlock {
	return &ErrDeadlock{Op: op, BlockedCtxs: in.Sim.BlockedCtxs()}
}

// Error is a kernel-level failure surfaced through the public API.
type Error struct {
	Op    string
	Path  string
	Errno Errno
}

func (e *Error) Error() string {
	if e.Path == "" {
		return "browsix: " + e.Op + ": " + e.Errno.String()
	}
	return "browsix: " + e.Op + " " + e.Path + ": " + e.Errno.String()
}

// Unwrap exposes the errno so errors.Is can match both the exact Errno
// and (via Errno's own mapping) the io/fs sentinel errors.
func (e *Error) Unwrap() error { return errnoErr(e.Errno) }

// SplitCmdline turns a shell-ish command line into the argv Start
// expects: lines containing shell metacharacters run under /bin/sh -c,
// anything else is split on whitespace.
func SplitCmdline(cmdline string) []string { return core.SplitCmdline(cmdline) }

// Start launches a process described by spec, driving the simulation
// until the launch outcome is known. On success the returned Process is
// live: its Stdout/Stderr streams, Wait, and Signal drive the simulation
// as needed. A launch failure (missing executable, exec format error)
// returns *Error; a simulation stall returns *ErrDeadlock.
func (in *Instance) Start(spec Spec) (*Process, error) {
	if len(spec.Argv) == 0 {
		return nil, &Error{Op: "start", Errno: abi.EINVAL}
	}
	p := &Process{in: in, argv0: spec.Argv[0]}
	p.stdout = &stream{p: p, name: "stdout", sink: spec.Stdout}
	p.stderr = &stream{p: p, name: "stderr", sink: spec.Stderr}

	started := false
	serr := abi.OK
	in.Main(func() {
		p.console = in.Kernel.StartProcess(core.ProcSpec{
			Argv:      spec.Argv,
			Env:       spec.Env,
			Dir:       spec.Dir,
			KeepStdin: spec.Interactive || spec.Stdin != nil,
			OnStart: func(pid int, err abi.Errno) {
				p.Pid, serr = pid, err
				started = true
			},
			OnExit:   func(pid, code int) { p.exited, p.code = true, code },
			OnStdout: p.stdout.push,
			OnStderr: p.stderr.push,
		})
	})
	if !in.Sim.RunUntil(func() bool { return started }) {
		return nil, in.deadlockErr("start " + p.argv0)
	}
	if serr != abi.OK {
		return nil, &Error{Op: "start", Path: p.argv0, Errno: serr}
	}
	if spec.Stdin != nil {
		// The pump runs as simulator events on the main thread; the
		// guest blocks on its first stdin read until the pump catches
		// up, so starting it after launch confirmation loses nothing.
		in.Main(func() { p.pumpStdin(spec.Stdin, spec.Interactive) })
	}
	return p, nil
}

// pumpStdin streams r into the guest's standard input from inside
// simulator events, pacing itself on pipe backpressure: the next host
// read happens only after the previous chunk is fully buffered. Runs on
// the main thread (called from OnStart).
func (p *Process) pumpStdin(r io.Reader, keepOpen bool) {
	buf := make([]byte, 32*1024)
	finish := func() {
		if !keepOpen {
			p.console.CloseStdin()
		}
	}
	var step func()
	step = func() {
		n, rerr := r.Read(buf)
		if n == 0 {
			// EOF, a read error, or a degenerate (0, nil) read: the
			// guest sees EOF (unless the caller keeps stdin open).
			finish()
			return
		}
		data := buf[:n]
		p.console.WriteStdinCB(data, func(_ int, werr abi.Errno) {
			if werr != abi.OK || rerr != nil {
				finish()
				return
			}
			step()
		})
	}
	step()
}

// Wait drives the simulation until the process exits and its output
// streams drain, returning the exit code (128+signal for signal deaths).
// If the simulation quiesces first — every remaining context is blocked —
// Wait returns *ErrDeadlock naming the stuck contexts; the process stays
// live, so an interactive caller can feed stdin and Wait again.
func (p *Process) Wait() (int, error) {
	if p.waited {
		return p.code, nil
	}
	if !p.in.Sim.RunUntil(func() bool { return p.exited }) {
		return 0, p.in.deadlockErr(fmt.Sprintf("wait %s (pid %d)", p.argv0, p.Pid))
	}
	// Drain this process's output pumps — and only this process's:
	// stopping at stream EOF keeps Wait from running an unrelated busy
	// guest to quiescence. If a stream never closes (an orphaned
	// grandchild kept the descriptor), the RunUntil ends at quiescence
	// and the known exit code is still the answer.
	p.in.Sim.RunUntil(func() bool { return p.stdout.closed && p.stderr.closed })
	p.waited = true
	return p.code, nil
}

// Exited reports whether the process has exited (without driving the
// simulation).
func (p *Process) Exited() bool { return p.exited }

// ExitCode returns the exit code once Exited; -1 before.
func (p *Process) ExitCode() int {
	if !p.exited {
		return -1
	}
	return p.code
}

// Signal sends sig to the process. An already-exited process yields
// ESRCH, as kill(2) does. Safe from host code and from inside Main
// events alike.
func (p *Process) Signal(sig int) error {
	if err := p.in.Kill(p.Pid, sig); err != abi.OK {
		return &Error{Op: "signal", Path: fmt.Sprintf("pid %d", p.Pid), Errno: err}
	}
	return nil
}

// WriteStdin feeds bytes to an Interactive process's standard input,
// driving the simulation until they are buffered (pipe backpressure).
func (p *Process) WriteStdin(data []byte) error {
	werr := abi.OK
	if !p.in.drive(func(done func()) {
		p.console.WriteStdinCB(data, func(_ int, err abi.Errno) { werr = err; done() })
	}) {
		return p.in.deadlockErr("write stdin")
	}
	if werr != abi.OK {
		return &Error{Op: "write stdin", Errno: werr}
	}
	return nil
}

// CloseStdin delivers EOF on standard input.
func (p *Process) CloseStdin() {
	p.in.drive(func(done func()) {
		p.console.CloseStdin()
		done()
	})
}

// Stdout returns the live standard-output stream. Reads return data as
// the guest produces it, driving the simulation while the stream is
// empty; EOF arrives when the guest side closes (normally at exit). With
// a Spec.Stdout sink configured the stream is empty (bytes went to the
// sink).
func (p *Process) Stdout() io.Reader { return p.stdout }

// Stderr returns the live standard-error stream (see Stdout).
func (p *Process) Stderr() io.Reader { return p.stderr }

// stream buffers one output stream and adapts it to io.Reader.
type stream struct {
	p      *Process
	name   string
	sink   io.Writer
	buf    []byte
	closed bool
}

// push is the kernel pump callback: data, or nil/empty at EOF.
func (s *stream) push(b []byte) {
	if len(b) == 0 {
		s.closed = true
		return
	}
	if s.sink != nil {
		n, err := s.sink.Write(b)
		if err == nil && n == len(b) {
			return
		}
		// A failing sink must not silently swallow guest output: stop
		// forwarding and buffer the unwritten rest for the
		// Stdout/Stderr reader.
		s.sink = nil
		if n < 0 || n > len(b) {
			n = 0
		}
		b = b[n:]
	}
	s.buf = append(s.buf, b...)
}

func (s *stream) Read(b []byte) (int, error) {
	if s.sink != nil {
		return 0, io.EOF // the sink owns this stream's bytes
	}
	if len(s.buf) == 0 && !s.closed {
		if !s.p.in.Sim.RunUntil(func() bool { return len(s.buf) > 0 || s.closed }) &&
			len(s.buf) == 0 && !s.closed {
			return 0, s.p.in.deadlockErr("read " + s.name)
		}
	}
	if len(s.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(b, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// take drains the buffered bytes.
func (s *stream) take() []byte {
	out := s.buf
	s.buf = nil
	return out
}
