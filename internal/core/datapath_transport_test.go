package core_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/posix"
	"repro/internal/rt"
)

// Data-path guards: the mixed write workload's differential across
// transports and write-back, the single-notify batched grant-read
// doorbell, and its benchmark.

func init() {
	// t-zcwmix: a mixed write workload — append storm, overwrite patch,
	// fsync, dup2 over an open write descriptor, pipe loopback — ending
	// in a self-read report. Byte-identical output is the differential's
	// contract across transports and write-back.
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

	// t-zcrbatch: after an in-process warm-up read, re-read the file
	// `repeats` times either through the batched grant-read entry point
	// or as one plain read per frame, and verify every pass agrees with
	// the warm-up. Exit code is the report; repeats amortize boot cost
	// out of the benchmark's steady-state measurement.
	posix.Register(&posix.Program{Name: "t-zcrbatch", Main: func(p posix.Proc) int {
		path, mode := p.Args()[1], p.Args()[2]
		frames, _ := strconv.Atoi(p.Args()[3])
		chunk, _ := strconv.Atoi(p.Args()[4])
		repeats, _ := strconv.Atoi(p.Args()[5])
		st, err := p.Stat(path)
		if err != abi.OK {
			return 1
		}
		size := int(st.Size)
		fd, err := p.Open(path, abi.O_RDONLY, 0)
		if err != abi.OK {
			return 2
		}
		warm, rerr := readN(p, fd, size)
		if rerr != abi.OK || len(warm) != size {
			return 3
		}
		wantHash := zcHash(0, warm)
		for pass := 0; pass < repeats; pass++ {
			if _, err := p.Seek(fd, 0, abi.SEEK_SET); err != abi.OK {
				return 4
			}
			var got []byte
			if mode == "batch" {
				rb, ok := p.(interface {
					ReadBatch(fd, chunk, frames int) ([]byte, abi.Errno)
				})
				if !ok {
					return 8
				}
				got, rerr = rb.ReadBatch(fd, chunk, frames)
				if rerr != abi.OK {
					return 5
				}
			} else {
				for i := 0; i < frames; i++ {
					b, rerr := p.Read(fd, chunk)
					if rerr != abi.OK {
						return 5
					}
					if len(b) == 0 {
						break
					}
					got = append(got, b...)
				}
			}
			if len(got) != size || zcHash(0, got) != wantHash {
				return 6
			}
		}
		p.Close(fd)
		return 0
	}})
}

// zcwmixRun boots v, runs the mixed write workload t-zcwmix once and
// checks that the run balanced its lease and pin ledgers. It returns
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
	if g, r := w.k.LeaseGrants.Load(), w.k.LeaseReturns.Load(); g != r {
		t.Errorf("%s: leases leaked (%d granted, %d returned)", v, g, r)
	}
	if pins := w.fs.CacheStats().PinnedPages; pins != 0 {
		t.Errorf("%s: %d pages still pinned", v, pins)
	}
	return out, w.sim.Now() - t0
}

// TestZeroCopyWriteDifferential runs the mixed write workload t-zcwmix
// on the async, scalar and ring transports with write-back on and off:
// all six outputs must be byte-identical and every run must balance its
// lease and pin ledgers.
func TestZeroCopyWriteDifferential(t *testing.T) {
	var want string
	for _, v := range variants(transports, core.Features{NoWriteBack: true}) {
		out, _ := zcwmixRun(t, v)
		if want == "" {
			want = out
		} else if out != want {
			t.Errorf("%s diverges:\n%q\nvs\n%q", v, out, want)
		}
	}
}

// TestZeroCopyWriteDeterministicClock: repeat runs of t-zcwmix in the
// same transport x write-back configuration land on the same virtual
// clock.
func TestZeroCopyWriteDeterministicClock(t *testing.T) {
	for _, v := range variants(transports, core.Features{NoWriteBack: true}) {
		_, a := zcwmixRun(t, v)
		_, b := zcwmixRun(t, v)
		if a != b {
			t.Errorf("%s: virtual clocks diverged between identical runs: %d vs %d ns", v, a, b)
		}
	}
}

// TestBatchedGrantReadSingleNotify: a 64-frame same-fd read run pushed
// through one doorbell resolves with one vectored cache pass (63 frames
// batched) and dramatically fewer wakes than frame-at-a-time reads.
func TestBatchedGrantReadSingleNotify(t *testing.T) {
	const frames, chunk = 64, 4096
	content := zcPattern(8, frames*chunk)
	run := func(mode string) *world {
		w := boot(t)
		mountRO(t, w, map[string][]byte{"/batch.bin": content})
		w.install(t, "/usr/bin/t-zcrbatch", "t-zcrbatch", rt.EmSyncKind)
		code, out, errOut := w.run(t,
			fmt.Sprintf("/usr/bin/t-zcrbatch /ro/batch.bin %s %d %d 1", mode, frames, chunk))
		if code != 0 {
			t.Fatalf("t-zcrbatch %s exited %d (%q %q)", mode, code, out, errOut)
		}
		if g, r := w.k.LeaseGrants.Load(), w.k.LeaseReturns.Load(); g != r {
			t.Fatalf("%s: leases leaked (%d granted, %d returned)", mode, g, r)
		}
		if pins := w.fs.CacheStats().PinnedPages; pins != 0 {
			t.Fatalf("%s: %d pages still pinned", mode, pins)
		}
		return w
	}
	wb := run("batch")
	if got := wb.k.BatchedGrantReads.Load(); got < frames-1 {
		t.Fatalf("BatchedGrantReads = %d, want >= %d (one vectored pass for the run)", got, frames-1)
	}
	ws := run("seq")
	if wb.k.RingNotifies.Load()+int64(frames)-4 > ws.k.RingNotifies.Load() {
		t.Fatalf("batched run woke %d times vs sequential %d — the doorbell was not answered once",
			wb.k.RingNotifies.Load(), ws.k.RingNotifies.Load())
	}
}

// BenchmarkBatchedGrantRead reports the batched grant-read run against
// frame-at-a-time reads of the same warm file (virtual MB/s). Several
// passes per process amortize boot out of the steady-state number.
func BenchmarkBatchedGrantRead(b *testing.B) {
	const frames, chunk, repeats = 64, 4096, 6
	content := zcPattern(8, frames*chunk)
	for _, mode := range []string{"batch", "seq"} {
		b.Run(mode, func(b *testing.B) {
			var bytes, elapsed int64
			for i := 0; i < b.N; i++ {
				w := boot(b)
				mountRO(b, w, map[string][]byte{"/batch.bin": content})
				w.install(b, "/usr/bin/t-zcrbatch", "t-zcrbatch", rt.EmSyncKind)
				t0 := w.sim.Now()
				code, out, errOut := w.run(b,
					fmt.Sprintf("/usr/bin/t-zcrbatch /ro/batch.bin %s %d %d %d", mode, frames, chunk, repeats))
				if code != 0 {
					b.Fatalf("t-zcrbatch exited %d (%q %q)", code, out, errOut)
				}
				elapsed += w.sim.Now() - t0
				bytes += repeats * frames * chunk
			}
			if elapsed > 0 {
				b.ReportMetric(float64(bytes)/(float64(elapsed)/1e9)/1e6, "virtMB/s")
			}
		})
	}
}
