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

// Zero-copy write path + batched grant reads: copied-bytes guards in
// both directions, the single-notify batched read doorbell, the
// write-path differential across transports and ablations, and the
// headline benchmarks.

// vfsContent reads a path through the VFS from the host side (memfs
// completes inline) — what a fresh reader would see.
func vfsContent(t testing.TB, w *world, p string) []byte {
	t.Helper()
	var out []byte
	ok := false
	w.fs.ReadFile(p, func(b []byte, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("read %s: %v", p, err)
		}
		out, ok = b, true
	})
	if !ok {
		t.Fatalf("read %s did not complete inline", p)
	}
	return out
}

func init() {
	// t-zcwseq: sequential chunked writes to a fresh file. Prints
	// NOTHING — the host verifies the bytes through the VFS, so the
	// copied-bytes ledger sees only the data plane.
	posix.Register(&posix.Program{Name: "t-zcwseq", Main: func(p posix.Proc) int {
		path := p.Args()[1]
		chunks, _ := strconv.Atoi(p.Args()[2])
		chunkLen, _ := strconv.Atoi(p.Args()[3])
		fd, err := p.Open(path, abi.O_WRONLY|abi.O_CREAT|abi.O_TRUNC, 0o644)
		if err != abi.OK {
			return 1
		}
		for i := 0; i < chunks; i++ {
			b := zcPattern(byte(i), chunkLen)
			n, werr := p.Write(fd, b)
			if werr != abi.OK || n != len(b) {
				return 2
			}
		}
		if p.Close(fd) != abi.OK {
			return 3
		}
		return 0
	}})

	// t-zccat: cat a file to stdout in fixed chunks (no report line).
	posix.Register(&posix.Program{Name: "t-zccat", Main: func(p posix.Proc) int {
		fd, err := p.Open(p.Args()[1], abi.O_RDONLY, 0)
		if err != abi.OK {
			return 1
		}
		for {
			b, rerr := p.Read(fd, 8192)
			if rerr != abi.OK {
				return 2
			}
			if len(b) == 0 {
				break
			}
			off := 0
			for off < len(b) {
				n, werr := p.Write(abi.Stdout, b[off:])
				if werr != abi.OK || n <= 0 {
					return 3
				}
				off += n
			}
		}
		p.Close(fd)
		return 0
	}})

	// t-zcwcv: count and hash stdin to EOF, verify against args, exit
	// code is the report (no write outside the pipe).
	posix.Register(&posix.Program{Name: "t-zcwcv", Main: func(p posix.Proc) int {
		wantN, _ := strconv.Atoi(p.Args()[1])
		wantH, _ := strconv.Atoi(p.Args()[2])
		total, sum := 0, 0
		for {
			b, err := p.Read(abi.Stdin, 8192)
			if err != abi.OK {
				return 4
			}
			if len(b) == 0 {
				break
			}
			total += len(b)
			sum = zcHash(sum, b)
		}
		if total != wantN || sum != wantH {
			return 7
		}
		return 0
	}})

	// t-zcpipe: cat <file> | wc, wired with an anonymous pipe; both ends
	// verify, the parent prints nothing and folds the children's exit
	// codes into its own.
	posix.Register(&posix.Program{Name: "t-zcpipe", Main: func(p posix.Proc) int {
		path, wantN, wantH := p.Args()[1], p.Args()[2], p.Args()[3]
		r, w, err := p.Pipe()
		if err != abi.OK {
			return 1
		}
		p1, err := p.Spawn("/usr/bin/t-zccat", []string{"t-zccat", path}, nil, []int{0, w, 2})
		if err != abi.OK {
			return 2
		}
		p2, err := p.Spawn("/usr/bin/t-zcwcv", []string{"t-zcwcv", wantN, wantH}, nil, []int{r, 1, 2})
		if err != abi.OK {
			return 3
		}
		p.Close(r)
		p.Close(w)
		_, st1, _ := p.Wait4(p1, 0)
		_, st2, _ := p.Wait4(p2, 0)
		if c := abi.WEXITSTATUS(st1); c != 0 {
			return 10 + c
		}
		if c := abi.WEXITSTATUS(st2); c != 0 {
			return 20 + c
		}
		return 0
	}})

	// t-zcwmix: a mixed write workload — append storm, overwrite patch,
	// dup2 over a staging descriptor, fsync, pipe loopback — ending in a
	// self-read report. Byte-identical output is the differential's
	// contract across transports and ablations.
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
		// 3. dup2 over a descriptor holding staging slots: its leases
		// must return, and writes through the duped fd keep working.
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

// TestZeroCopyWarmWriteZeroCopiedBytes is the write-direction acceptance
// guard: a sequential write workload over the ring transport with
// write-back on moves ZERO payload bytes through kernel copies — every
// byte is staged by the guest and adopted by reference — and the append
// storm reaches the backend as ONE vectored write.
func TestZeroCopyWarmWriteZeroCopiedBytes(t *testing.T) {
	w := boot(t)
	w.mkdirAll(t, "/data")
	w.install(t, "/usr/bin/t-zcwseq", "t-zcwseq", rt.EmSyncKind)

	const chunks, chunkLen = 150, 1000
	flushesBefore := w.fs.CacheStats().FlushWrites
	code, out, errOut := w.run(t, fmt.Sprintf("/usr/bin/t-zcwseq /data/out.bin %d %d", chunks, chunkLen))
	if code != 0 {
		t.Fatalf("t-zcwseq exited %d (%q %q)", code, out, errOut)
	}
	if got := w.k.WriteCopiedBytes.Load(); got != 0 {
		t.Fatalf("sequential staged writes copied %d payload bytes through the kernel, want 0", got)
	}
	if got := w.k.WriteGrantedBytes.Load(); got != chunks*chunkLen {
		t.Fatalf("WriteGrantedBytes = %d, want %d", got, chunks*chunkLen)
	}
	if d := w.fs.CacheStats().FlushWrites - flushesBefore; d != 1 {
		t.Fatalf("append storm flushed as %d vectored backend writes, want 1", d)
	}
	// The bytes are right, end to end.
	want := make([]byte, 0, chunks*chunkLen)
	for i := 0; i < chunks; i++ {
		want = append(want, zcPattern(byte(i), chunkLen)...)
	}
	got := vfsContent(t, w, "/data/out.bin")
	if string(got) != string(want) {
		t.Fatalf("written content differs (%d vs %d bytes)", len(got), len(want))
	}
	// And the lease ledger balances: staging slots all came back.
	if w.k.LeaseGrants.Load() == 0 {
		t.Fatalf("no staging leases taken — the zero-copy write path never engaged")
	}
	if g, r := w.k.LeaseGrants.Load(), w.k.LeaseReturns.Load(); g != r {
		t.Fatalf("leases leaked: %d granted, %d returned", g, r)
	}
	if w.fs.WriteStagedSlots() != 0 {
		t.Fatalf("%d write-staging slots still leased after exit", w.fs.WriteStagedSlots())
	}
	if pins := w.fs.CacheStats().PinnedPages; pins != 0 {
		t.Fatalf("%d pool pages still pinned after flush + exit", pins)
	}
}

// TestZeroCopyPipelineBothDirectionsZeroCopied: a warm `cat | wc`
// moves every payload byte by grant — file to cat by page lease, cat to
// wc by staged-slot adoption and pipe grants — with zero kernel copies
// in either direction.
func TestZeroCopyPipelineBothDirectionsZeroCopied(t *testing.T) {
	content := zcPattern(7, 256*1024)
	w := boot(t)
	mountRO(t, w, map[string][]byte{"/pipe.bin": content})
	for _, prog := range []string{"t-zcpipe", "t-zccat", "t-zcwcv"} {
		w.install(t, "/usr/bin/"+prog, prog, rt.EmSyncKind)
	}
	cmd := fmt.Sprintf("/usr/bin/t-zcpipe /ro/pipe.bin %d %d", len(content), zcHash(0, content))

	// Cold run: the file enters the page cache through the copy path.
	code, out, errOut := w.run(t, cmd)
	if code != 0 {
		t.Fatalf("cold pipeline exited %d (%q %q)", code, out, errOut)
	}
	rc, wc := w.k.ReadCopiedBytes.Load(), w.k.WriteCopiedBytes.Load()

	// Warm run: both directions fully granted.
	code, out, errOut = w.run(t, cmd)
	if code != 0 {
		t.Fatalf("warm pipeline exited %d (%q %q)", code, out, errOut)
	}
	if d := w.k.ReadCopiedBytes.Load() - rc; d != 0 {
		t.Fatalf("warm pipeline copied %d bytes kernel->process, want 0", d)
	}
	if d := w.k.WriteCopiedBytes.Load() - wc; d != 0 {
		t.Fatalf("warm pipeline copied %d bytes process->kernel, want 0", d)
	}
	if w.k.WriteGrantedBytes.Load() < int64(2*len(content)) {
		t.Fatalf("WriteGrantedBytes = %d, want >= %d (two full pipe passes)",
			w.k.WriteGrantedBytes.Load(), 2*len(content))
	}
	if g, r := w.k.LeaseGrants.Load(), w.k.LeaseReturns.Load(); g != r {
		t.Fatalf("leases leaked: %d granted, %d returned", g, r)
	}
	if pins := w.fs.CacheStats().PinnedPages; pins != 0 {
		t.Fatalf("%d pool pages still pinned after exit", pins)
	}
}

// TestZeroCopyWriteDifferential runs the mixed write workload on the
// async, scalar and ring transports, each with the zero-copy write path
// on and off and write-back on and off: all twelve outputs must be
// byte-identical, and the ring configurations must balance their lease
// ledger exactly.
func TestZeroCopyWriteDifferential(t *testing.T) {
	outputs := map[string]string{}
	for _, v := range variants(transports, core.Features{NoZeroCopyWrite: true}, core.Features{NoWriteBack: true}) {
		w := v.boot(t)
		w.mkdirAll(t, "/data")
		w.install(t, "/usr/bin/t-zcwmix", "t-zcwmix", v.tr.kind())
		code, out, errOut := w.run(t, "/usr/bin/t-zcwmix")
		if code != 0 {
			t.Fatalf("%s: exited %d (stdout %q stderr %q)", v, code, out, errOut)
		}
		outputs[v.String()] = out
		if v == (variant{tr: ring}) && w.k.WriteGrantedBytes.Load() == 0 {
			t.Errorf("%s: no bytes adopted by reference — write-grant path unused", v)
		}
		if g, r := w.k.LeaseGrants.Load(), w.k.LeaseReturns.Load(); g != r {
			t.Errorf("%s: leases leaked (%d granted, %d returned)", v, g, r)
		}
		if w.fs.WriteStagedSlots() != 0 {
			t.Errorf("%s: %d staging slots leaked", v, w.fs.WriteStagedSlots())
		}
		if pins := w.fs.CacheStats().PinnedPages; pins != 0 {
			t.Errorf("%s: %d pages still pinned", v, pins)
		}
	}
	var want string
	for _, out := range outputs {
		want = out
		break
	}
	for name, out := range outputs {
		if out != want {
			t.Errorf("%s diverges:\n%q\nvs\n%q", name, out, want)
		}
	}
}

// TestZeroCopyWriteDeterministicClock: repeat runs of the same ring
// configuration land on the same virtual clock — the staged write path
// is as deterministic as everything else.
func TestZeroCopyWriteDeterministicClock(t *testing.T) {
	elapsed := func() int64 {
		w := boot(t)
		w.mkdirAll(t, "/data")
		w.install(t, "/usr/bin/t-zcwmix", "t-zcwmix", rt.EmSyncKind)
		t0 := w.sim.Now()
		code, out, errOut := w.run(t, "/usr/bin/t-zcwmix")
		if code != 0 {
			t.Fatalf("t-zcwmix exited %d (%q %q)", code, out, errOut)
		}
		return w.sim.Now() - t0
	}
	a, b := elapsed(), elapsed()
	if a != b {
		t.Fatalf("virtual clocks diverged between identical runs: %d vs %d ns", a, b)
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

// zcwBenchRun writes passes x size bytes sequentially in a fresh world
// and reports the virtual time the run took.
func zcwBenchRun(t testing.TB, ft core.Features, chunks, chunkLen int) int64 {
	w := boot(t)
	w.k.SetFeatures(ft)
	w.mkdirAll(t, "/data")
	w.install(t, "/usr/bin/t-zcwseq", "t-zcwseq", rt.EmSyncKind)
	t0 := w.sim.Now()
	code, out, errOut := w.run(t, fmt.Sprintf("/usr/bin/t-zcwseq /data/out.bin %d %d", chunks, chunkLen))
	if code != 0 {
		t.Fatalf("t-zcwseq exited %d (%q %q)", code, out, errOut)
	}
	return w.sim.Now() - t0
}

// BenchmarkZeroCopyWrite reports sequential-write throughput (virtual
// MB/s) of the staged-grant path against the copy path. Bulk-sized
// chunks: steady state the staged path costs one doorbell per write
// (the replenishing wgalloc rides the writeg batch) and moves no bytes
// through the kernel, so the per-byte crossing charge is the margin.
// A zero-chunk run of the same program is subtracted to isolate the
// write phase from boot/spawn (exact — the clock is deterministic).
func BenchmarkZeroCopyWrite(b *testing.B) {
	const chunks, chunkLen = 10, 786432
	for _, cfg := range []struct {
		name string
		ft   core.Features
	}{
		{"grant", core.Features{}},
		{"copy", core.Features{NoZeroCopyWrite: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var bytes, elapsed int64
			for i := 0; i < b.N; i++ {
				base := zcwBenchRun(b, cfg.ft, 0, chunkLen)
				elapsed += zcwBenchRun(b, cfg.ft, chunks, chunkLen) - base
				bytes += chunks * chunkLen
			}
			if elapsed > 0 {
				b.ReportMetric(float64(bytes)/(float64(elapsed)/1e9)/1e6, "virtMB/s")
			}
		})
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
