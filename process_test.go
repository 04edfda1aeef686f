package browsix_test

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"strings"
	"testing"

	browsix "repro"
	"repro/internal/abi"
)

// Tests for the process-handle API: Start(Spec) → *Process, live streams,
// env/cwd/stdin plumbing, and the typed deadlock error. The interactive
// stdin cases double as the acceptance differential: byte-identical
// output on the async and ring transports.

func TestStartEnvDirPlumbing(t *testing.T) {
	in := bootBase(t)
	p, err := in.Start(browsix.Spec{
		Argv: []string{"/bin/sh", "-c", "pwd; echo pwd=$PWD; echo greeting=$GREETING"},
		Env:  []string{"PATH=/usr/bin:/bin", "GREETING=bonjour"},
		Dir:  "/home",
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	out, _ := io.ReadAll(p.Stdout())
	if code, werr := p.Wait(); code != 0 || werr != nil {
		t.Fatalf("exit %d (%v)", code, werr)
	}
	want := "/home\npwd=/home\ngreeting=bonjour\n"
	if string(out) != want {
		t.Fatalf("stdout = %q, want %q", out, want)
	}
}

func TestShellPWDTracking(t *testing.T) {
	in := bootBase(t)
	p, err := in.Start(browsix.Spec{
		Argv: []string{"/bin/sh", "-c", "cd /tmp; echo $PWD; echo $OLDPWD; cd - ; echo $PWD"},
		Dir:  "/home",
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	out, _ := io.ReadAll(p.Stdout())
	if code, werr := p.Wait(); code != 0 || werr != nil {
		t.Fatalf("exit %d (%v)", code, werr)
	}
	want := "/tmp\n/home\n/home\n/home\n" // cd - echoes the directory
	if string(out) != want {
		t.Fatalf("PWD tracking = %q, want %q", out, want)
	}
}

func TestStartPATHFromSpecEnv(t *testing.T) {
	in := bootBase(t)
	// A bare command name resolves through the spec's PATH, not the
	// default: hide /usr/bin and the lookup must fail...
	if _, err := in.Start(browsix.Spec{
		Argv: []string{"echo", "hi"},
		Env:  []string{"PATH=/nowhere"},
	}); err == nil {
		t.Fatal("bare name resolved despite empty PATH")
	}
	// ...while the standard PATH finds it.
	p, err := in.Start(browsix.Spec{Argv: []string{"echo", "hi"}})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	out, _ := io.ReadAll(p.Stdout())
	p.Wait()
	if string(out) != "hi\n" {
		t.Fatalf("stdout %q", out)
	}
}

func TestStartUnknownExecutable(t *testing.T) {
	in := bootBase(t)
	_, err := in.Start(browsix.Spec{Argv: []string{"/no/such/binary"}})
	var be *browsix.Error
	if !errors.As(err, &be) {
		t.Fatalf("want *browsix.Error, got %T: %v", err, err)
	}
	// The chain matches both the io/fs sentinel and the exact errno.
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	if !errors.Is(err, abi.ENOENT) {
		t.Fatalf("want exact-errno match for ENOENT, got %v", err)
	}
	// Facade errors carry the same dual chain.
	if _, ferr := in.FS().ReadFile("nope.txt"); !errors.Is(ferr, abi.ENOENT) || !errors.Is(ferr, fs.ErrNotExist) {
		t.Fatalf("facade errno chain: %v", ferr)
	}
}

// TestWaitDoesNotRunUnrelatedGuests: Wait on a finished process drains
// only its own streams instead of running the whole simulation to
// quiescence — a concurrent long-running guest keeps its remaining
// virtual time.
func TestWaitDoesNotRunUnrelatedGuests(t *testing.T) {
	in := bootBase(t)
	bg, err := in.Start(browsix.Spec{Argv: []string{"sleep", "30"}})
	if err != nil {
		t.Fatalf("start sleeper: %v", err)
	}
	p, err := in.Start(browsix.Spec{Argv: []string{"echo", "quick"}})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if code, werr := p.Wait(); code != 0 || werr != nil {
		t.Fatalf("exit %d (%v)", code, werr)
	}
	// The old Wait ended with Sim.Run(), which would have driven the
	// sleeper all the way to its exit; stopping at stream EOF leaves it
	// mid-flight.
	if bg.Exited() {
		t.Fatal("Wait ran the 30s sleeper to completion")
	}
	if err := bg.Signal(abi.SIGKILL); err != nil {
		t.Fatalf("cleanup: %v", err)
	}
	bg.Wait()
}

// TestWriteStdinAfterCloseRejected: a non-Interactive process's stdin
// is already closed (immediate EOF); WriteStdin must fail rather than
// smuggle bytes past the EOF the guest was promised.
func TestWriteStdinAfterCloseRejected(t *testing.T) {
	in := bootBase(t)
	p, err := in.Start(browsix.Spec{Argv: []string{"cat"}})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if werr := p.WriteStdin([]byte("smuggled\n")); werr == nil {
		t.Fatal("WriteStdin succeeded on closed stdin")
	}
	out, _ := io.ReadAll(p.Stdout())
	if code, werr := p.Wait(); code != 0 || werr != nil {
		t.Fatalf("exit %d (%v)", code, werr)
	}
	if len(out) != 0 {
		t.Fatalf("guest saw bytes past EOF: %q", out)
	}
	// Same once an Interactive session delivers EOF explicitly.
	p2, _ := in.Start(browsix.Spec{Argv: []string{"cat"}, Interactive: true})
	p2.CloseStdin()
	if werr := p2.WriteStdin([]byte("late\n")); werr == nil {
		t.Fatal("WriteStdin succeeded after CloseStdin")
	}
	p2.Wait()
}

func TestStartStdinReader(t *testing.T) {
	in := bootBase(t)
	// A shell pipeline reading "host stdin": the Spec.Stdin reader is
	// pumped into the guest with backpressure; its EOF becomes guest EOF.
	p, err := in.Start(browsix.Spec{
		Argv:  []string{"/bin/sh", "-c", "cat | wc -l"},
		Stdin: strings.NewReader("a\nb\nc\n"),
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	out, _ := io.ReadAll(p.Stdout())
	if code, werr := p.Wait(); code != 0 || werr != nil {
		t.Fatalf("exit %d (%v)", code, werr)
	}
	if strings.TrimSpace(string(out)) != "3" {
		t.Fatalf("wc -l over host stdin = %q", out)
	}
}

func TestStartStdoutSinkStreamsLive(t *testing.T) {
	in := bootBase(t)
	var sink bytes.Buffer
	p, err := in.Start(browsix.Spec{
		Argv:   []string{"echo", "to-sink"},
		Stdout: &sink,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if code, _ := p.Wait(); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if sink.String() != "to-sink\n" {
		t.Fatalf("sink = %q", sink.String())
	}
	// With a sink configured the buffered stream stays empty.
	if b, _ := io.ReadAll(p.Stdout()); len(b) != 0 {
		t.Fatalf("buffered stream not empty: %q", b)
	}
}

// TestInteractiveCatAcrossTransports is the acceptance case: cat fed
// incrementally then EOF, byte-identical on the ring transport and the
// async runtime.
func TestInteractiveCatAcrossTransports(t *testing.T) {
	feed := []string{"first line\n", "second ", "line\n", "third\n"}
	run := func(name string, in *browsix.Instance) string {
		p, err := in.Start(browsix.Spec{
			Argv:        []string{"cat"},
			Interactive: true,
		})
		if err != nil {
			t.Fatalf("%s: start: %v", name, err)
		}
		var echoed bytes.Buffer
		for _, chunk := range feed {
			if werr := p.WriteStdin([]byte(chunk)); werr != nil {
				t.Fatalf("%s: write stdin: %v", name, werr)
			}
			// Read the echo back incrementally: the stream is live.
			buf := make([]byte, 64)
			for echoed.Len() < countFed(feed, chunk) {
				n, rerr := p.Stdout().Read(buf)
				if rerr != nil {
					t.Fatalf("%s: read: %v", name, rerr)
				}
				echoed.Write(buf[:n])
			}
		}
		p.CloseStdin()
		rest, _ := io.ReadAll(p.Stdout())
		echoed.Write(rest)
		if code, werr := p.Wait(); code != 0 || werr != nil {
			t.Fatalf("%s: exit %d (%v)", name, code, werr)
		}
		return echoed.String()
	}

	want := strings.Join(feed, "")
	for _, v := range variants(transports) {
		if got := run(v.String(), v.boot(browsix.Config{})); got != want {
			t.Fatalf("interactive cat diverged on %s:\ngot  %q\nwant %q", v, got, want)
		}
	}
}

// countFed returns the total bytes fed up to and including chunk.
func countFed(feed []string, upto string) int {
	n := 0
	for _, c := range feed {
		n += len(c)
		if c == upto {
			break
		}
	}
	return n
}

// TestShellPipelineHostStdinAcrossTransports: a pipeline whose first
// stage reads host stdin, on both transports, byte-identical.
func TestShellPipelineHostStdinAcrossTransports(t *testing.T) {
	input := "delta\nalpha\ncharlie\nbravo\nalpha\n"
	run := func(name string, in *browsix.Instance) string {
		p, err := in.Start(browsix.Spec{
			Argv:  []string{"/bin/sh", "-c", "cat | sort -u | tee /sorted.txt | wc -l"},
			Stdin: strings.NewReader(input),
		})
		if err != nil {
			t.Fatalf("%s: start: %v", name, err)
		}
		out, _ := io.ReadAll(p.Stdout())
		if code, werr := p.Wait(); code != 0 || werr != nil {
			t.Fatalf("%s: exit %d (%v)", name, code, werr)
		}
		sorted, ferr := in.FS().ReadFile("sorted.txt")
		if ferr != nil {
			t.Fatalf("%s: sorted.txt: %v", name, ferr)
		}
		return string(out) + "|" + string(sorted)
	}
	var ref string
	for _, v := range variants(transports) {
		got := run(v.String(), v.boot(browsix.Config{}))
		if v.tr == async {
			ref = got
		} else if got != ref {
			t.Fatalf("pipeline over host stdin diverged:\nasync %q\n%-5s %q", ref, v, got)
		}
	}
	count, _, _ := strings.Cut(ref, "|")
	if strings.TrimSpace(count) != "4" {
		t.Fatalf("unexpected pipeline output %q", ref)
	}
}

// TestWaitReturnsTypedDeadlock: a guest blocked forever on stdin makes
// Wait return *ErrDeadlock (carrying the blocked contexts) instead of
// panicking — and the process stays usable: feeding stdin unblocks it.
func TestWaitReturnsTypedDeadlock(t *testing.T) {
	in := variant{tr: ring}.boot(browsix.Config{}) // sync runtime: the guest futex-blocks
	p, err := in.Start(browsix.Spec{
		Argv:        []string{"cat"},
		Interactive: true,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	_, werr := p.Wait()
	var dl *browsix.ErrDeadlock
	if !errors.As(werr, &dl) {
		t.Fatalf("want *ErrDeadlock, got %T: %v", werr, werr)
	}
	if len(dl.BlockedCtxs) == 0 {
		t.Fatalf("deadlock carries no blocked contexts: %v", dl)
	}
	// Recover: deliver EOF and the process exits cleanly.
	p.CloseStdin()
	if code, werr := p.Wait(); code != 0 || werr != nil {
		t.Fatalf("after EOF: exit %d (%v)", code, werr)
	}
}

// TestStreamReadReportsDeadlock: reading a stream that can never produce
// surfaces the same typed error.
func TestStreamReadReportsDeadlock(t *testing.T) {
	in := variant{tr: ring}.boot(browsix.Config{})
	p, err := in.Start(browsix.Spec{Argv: []string{"cat"}, Interactive: true})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	buf := make([]byte, 8)
	_, rerr := p.Stdout().Read(buf)
	var dl *browsix.ErrDeadlock
	if !errors.As(rerr, &dl) {
		t.Fatalf("want *ErrDeadlock from stream read, got %v", rerr)
	}
	p.CloseStdin()
	p.Wait()
}
