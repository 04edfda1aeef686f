package core_test

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/posix"
)

// Data-path guards: the mixed write workload's differential across
// transports.

func init() {
	// t-zcwmix: a mixed write workload — append storm, overwrite patch,
	// fsync, dup2 over an open write descriptor, pipe loopback — ending
	// in a self-read report. Byte-identical output is the differential's
	// contract across transports.
	posix.Register(&posix.Program{Name: "t-zcwmix", Main: func(p posix.Proc) int {
		// 1. Append storm.
		fd, err := p.Open("/data/f", abi.O_WRONLY|abi.O_CREAT|abi.O_TRUNC, 0o644)
		if err != abi.OK {
			return 1
		}
		for i := 0; i < 120; i++ {
			line := []byte(fmt.Sprintf("storm line %04d with some padding padding padding\n", i))
			if n, werr := p.Write(fd, line); werr != abi.OK || n != len(line) {
				return 2
			}
		}
		// 2. Overwrite patch through a second descriptor + fsync.
		fd2, err := p.Open("/data/f", abi.O_WRONLY, 0)
		if err != abi.OK {
			return 3
		}
		if _, werr := p.Pwrite(fd2, []byte("<<PATCHED>>"), 4096); werr != abi.OK {
			return 4
		}
		if p.Fsync(fd2) != abi.OK {
			return 5
		}
		// 3. dup2 over an open write descriptor: writes through the
		// duped fd keep working.
		if p.Dup2(fd, fd2) != abi.OK {
			return 6
		}
		if n, werr := p.Write(fd2, []byte("tail after dup2\n")); werr != abi.OK || n <= 0 {
			return 7
		}
		p.Close(fd2)
		p.Close(fd)
		// 4. Pipe loopback inside one process (stays under the pipe
		// capacity so the single thread cannot deadlock).
		r, w, err := p.Pipe()
		if err != abi.OK {
			return 8
		}
		loop := zcPattern(9, 4096)
		if n, werr := p.Write(w, loop); werr != abi.OK || n != len(loop) {
			return 9
		}
		back, rerr := readN(p, r, len(loop))
		if rerr != abi.OK {
			return 10
		}
		p.Close(w)
		p.Close(r)
		// 5. Report: re-read the file and print sizes and hashes.
		rfd, err := p.Open("/data/f", abi.O_RDONLY, 0)
		if err != abi.OK {
			return 11
		}
		all, rerr := readN(p, rfd, 1<<20)
		if rerr != abi.OK {
			return 12
		}
		p.Close(rfd)
		posix.Fprintf(p, abi.Stdout, "file n=%d hash=%d pipe n=%d hash=%d\n",
			len(all), zcHash(0, all), len(back), zcHash(0, back))
		return 0
	}})
}

// zcwmixRun boots v, runs the mixed write workload t-zcwmix once and
// checks that the run balanced its pin ledger. It returns
// the workload's stdout and the virtual time the run took.
func zcwmixRun(t *testing.T, v variant) (string, int64) {
	w := v.boot(t)
	w.mkdirAll(t, "/data")
	w.install(t, "/usr/bin/t-zcwmix", "t-zcwmix", v.tr.kind())
	t0 := w.sim.Now()
	code, out, errOut := w.run(t, "/usr/bin/t-zcwmix")
	if code != 0 {
		t.Fatalf("%s: exited %d (stdout %q stderr %q)", v, code, out, errOut)
	}
	if pins := w.fs.CacheStats().PinnedPages; pins != 0 {
		t.Errorf("%s: %d pages still pinned", v, pins)
	}
	return out, w.sim.Now() - t0
}

// TestZeroCopyWriteDifferential runs the mixed write workload t-zcwmix
// on the async and ring transports: both outputs must be byte-identical
// and every run must balance its pin ledger. (The name predates the
// deletion of the zero-copy write path; every write now copies once.)
func TestZeroCopyWriteDifferential(t *testing.T) {
	var want string
	for _, v := range variants(transports) {
		out, _ := zcwmixRun(t, v)
		if want == "" {
			want = out
		} else if out != want {
			t.Errorf("%s diverges:\n%q\nvs\n%q", v, out, want)
		}
	}
}

// TestZeroCopyWriteDeterministicClock: repeat runs of t-zcwmix on the
// same transport land on the same virtual clock.
func TestZeroCopyWriteDeterministicClock(t *testing.T) {
	for _, v := range variants(transports) {
		_, a := zcwmixRun(t, v)
		_, b := zcwmixRun(t, v)
		if a != b {
			t.Errorf("%s: virtual clocks diverged between identical runs: %d vs %d ns", v, a, b)
		}
	}
}
