package browsix_test

import (
	"errors"
	"strings"
	"testing"

	browsix "repro"
	"repro/internal/abi"
)

// Signal-delivery coverage for the process-handle API: a sleeping guest,
// a guest blocked mid-pipe-write, and an already-exited pid, across both
// synchronous transports (scalar wake-cell and ring).

func TestSignalSleepingGuest(t *testing.T) {
	for _, v := range variants([]transport{scalar, ring}) {
		t.Run(v.String(), func(t *testing.T) {
			in := v.boot(browsix.Config{})
			p, err := in.Start(browsix.Spec{Argv: []string{"sleep", "5"}})
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			if serr := p.Signal(abi.SIGKILL); serr != nil {
				t.Fatalf("signal: %v", serr)
			}
			code, werr := p.Wait()
			if werr != nil {
				t.Fatalf("wait: %v", werr)
			}
			if code != 128+abi.SIGKILL {
				t.Fatalf("exit code %d, want %d", code, 128+abi.SIGKILL)
			}
			// Virtual time must not have advanced the full five seconds.
			if in.Now() > 4_000_000_000 {
				t.Fatalf("kill did not interrupt the sleep: now=%dms", in.Now()/1e6)
			}
		})
	}
}

func TestSignalMidPipeWriteGuest(t *testing.T) {
	for _, v := range variants([]transport{scalar, ring}) {
		t.Run(v.String(), func(t *testing.T) {
			in := v.boot(browsix.Config{})
			// Stage a payload much larger than the 64 KiB pipe buffer, so
			// cat blocks in a write syscall once sleep (which never
			// reads) lets the pipe fill.
			if err := in.FS().WriteFile("big.bin", make([]byte, 512*1024), 0o644); err != nil {
				t.Fatalf("stage: %v", err)
			}
			p, err := in.Start(browsix.Spec{
				Argv: []string{"/bin/sh", "-c", "cat /big.bin | sleep 1"},
			})
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			// Run until cat exists, has issued writes, and is wedged
			// against pipe backpressure: its worker is the only context
			// that futex-blocks (sleep burns CPU; the shell is async).
			var catPid int
			in.RunUntil(func() bool {
				for _, task := range in.Kernel.Tasks() {
					if strings.Contains(task.Path, "/cat") {
						catPid = task.Pid
					}
				}
				writes := in.Kernel.SyscallCount["write"] + in.Kernel.SyscallCount["writev"]
				return catPid != 0 && writes > 0 && len(in.Sim.BlockedCtxs()) > 0
			})
			if catPid == 0 {
				t.Fatal("cat never spawned")
			}
			if err := in.Kill(catPid, abi.SIGKILL); err != abi.OK {
				t.Fatalf("kill cat: %v", err)
			}
			// The pipeline still completes: sleep finishes and the shell
			// reports its status.
			code, werr := p.Wait()
			if werr != nil {
				t.Fatalf("wait after mid-write kill: %v", werr)
			}
			if code != 0 {
				t.Fatalf("pipeline exit %d", code)
			}
			// The killed writer is gone — no zombie, no wedged worker.
			if task := in.Kernel.Task(catPid); task != nil {
				t.Fatalf("killed cat still in task table: %s", task.StateName())
			}
			if in.Kernel.SignalsDelivered.Load() == 0 {
				t.Fatal("kernel recorded no signal deliveries")
			}
		})
	}
}

func TestSignalExitedPidESRCH(t *testing.T) {
	for _, v := range variants([]transport{scalar, ring}) {
		t.Run(v.String(), func(t *testing.T) {
			in := v.boot(browsix.Config{})
			p, err := in.Start(browsix.Spec{Argv: []string{"true"}})
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			if code, werr := p.Wait(); code != 0 || werr != nil {
				t.Fatalf("exit %d (%v)", code, werr)
			}
			serr := p.Signal(abi.SIGTERM)
			var be *browsix.Error
			if !errors.As(serr, &be) || be.Errno != abi.ESRCH {
				t.Fatalf("signal after exit: want ESRCH, got %v", serr)
			}
			// The instance-level helper agrees.
			if got := in.Kill(p.Pid, abi.SIGTERM); got != abi.ESRCH {
				t.Fatalf("Kill(exited) = %v, want ESRCH", got)
			}
			// And a never-allocated pid too.
			if got := in.Kill(9999, abi.SIGTERM); got != abi.ESRCH {
				t.Fatalf("Kill(9999) = %v, want ESRCH", got)
			}
		})
	}
}
