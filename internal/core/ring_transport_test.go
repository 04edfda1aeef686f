package core_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/posix"
	"repro/internal/rt"
)

// A program that exercises the vectored syscalls over files and pipes;
// its output must be byte-identical on every transport.
func init() {
	posix.Register(&posix.Program{Name: "t-vectored", Main: func(p posix.Proc) int {
		fd, err := p.Open("/vec.txt", abi.O_WRONLY|abi.O_CREAT|abi.O_TRUNC, 0o644)
		if err != abi.OK {
			return 1
		}
		n, err := p.Writev(fd, [][]byte{[]byte("alpha-"), []byte("beta-"), []byte("gamma")})
		if err != abi.OK || n != 16 {
			return 2
		}
		p.Close(fd)

		fd, err = p.Open("/vec.txt", abi.O_RDONLY, 0)
		if err != abi.OK {
			return 3
		}
		segs, err := p.Readv(fd, []int{4, 4, 64})
		if err != abi.OK {
			return 4
		}
		var all []byte
		for _, s := range segs {
			all = append(all, s...)
		}
		p.Close(fd)
		posix.Fprintf(p, abi.Stdout, "file n=%d data=%s\n", n, all)

		// Vectored round trip through a pipe (the splice fast path).
		r, w, perr := p.Pipe()
		if perr != abi.OK {
			return 5
		}
		if _, err := p.Writev(w, [][]byte{[]byte("ring"), []byte("-"), []byte("pipe")}); err != abi.OK {
			return 6
		}
		psegs, err := p.Readv(r, []int{2, 2, 64})
		if err != abi.OK {
			return 7
		}
		var pall []byte
		for _, s := range psegs {
			pall = append(pall, s...)
		}
		posix.Fprintf(p, abi.Stdout, "pipe data=%s\n", pall)
		p.Close(r)
		p.Close(w)
		return 0
	}})
}

// bigPattern is t-bigwrite's payload: 1.5 MiB of byte(i*7).
func bigPattern() []byte {
	big := make([]byte, (1<<20)+(1<<19))
	for i := range big {
		big[i] = byte(i * 7)
	}
	return big
}

func init() {
	// Writes a buffer larger than the em-sync scratch region (1 MiB heap
	// minus rings): the runtime must chunk it, not overflow.
	posix.Register(&posix.Program{Name: "t-bigwrite", Main: func(p posix.Proc) int {
		big := bigPattern()
		fd, err := p.Open("/big.out", abi.O_WRONLY|abi.O_CREAT|abi.O_TRUNC, 0o644)
		if err != abi.OK {
			return 1
		}
		n, err := p.Write(fd, big)
		if err != abi.OK || n != len(big) {
			return 2
		}
		p.Close(fd)
		st, err := p.Stat("/big.out")
		if err != abi.OK || st.Size != int64(len(big)) {
			return 3
		}
		posix.Fprintf(p, abi.Stdout, "big=%d\n", st.Size)
		return 0
	}})
}

// TestOversizedSyncWriteChunks: a write larger than the shared heap's
// scratch region must complete (in pieces) on the ring instead of
// overflowing the staging area — and the chunks must land in order,
// byte for byte.
func TestOversizedSyncWriteChunks(t *testing.T) {
	want := bigPattern()
	for _, v := range variants([]transport{ring}) {
		w := v.boot(t)
		w.install(t, "/usr/bin/t-bigwrite", "t-bigwrite", v.tr.kind())
		code, out, errOut := w.run(t, "/usr/bin/t-bigwrite")
		if code != 0 || out != "big=1572864\n" {
			t.Fatalf("%s: exit=%d out=%q err=%q", v, code, out, errOut)
		}
		if got := w.readFile(t, "/big.out"); !bytes.Equal(got, want) {
			t.Fatalf("%s: /big.out differs from the written pattern (%d vs %d bytes)", v, len(got), len(want))
		}
	}
}

// TestVectoredTransportsAgree is the differential proof that the ring
// transport and the async transport produce byte-identical results for
// the same program.
func TestVectoredTransportsAgree(t *testing.T) {
	outputs := map[string]string{}
	run := func(v variant, kind rt.Kind) *world {
		w := v.boot(t)
		w.install(t, "/usr/bin/t-vec", "t-vectored", kind)
		code, out, errOut := w.run(t, "/usr/bin/t-vec")
		if code != 0 {
			t.Fatalf("%s/%s: t-vectored exited %d (stderr %q)", v, kind, code, errOut)
		}
		outputs[v.String()+"/"+string(kind)] = out
		return w
	}
	for _, v := range variants(transports) {
		w := run(v, v.tr.kind())
		if v.tr != ring {
			continue
		}
		if w.k.RingSyscalls.Load() == 0 {
			t.Errorf("%s: ring transport negotiated but unused", v)
		}
		if w.k.RingBatchedCalls.Load() == 0 {
			t.Errorf("%s: writev fan-out produced no batched dispatches", v)
		}
	}
	run(variant{tr: ring}, rt.WasmKind) // the wasm runtime rides the ring too
	want := "file n=16 data=alpha-beta-gamma\npipe data=ring-pipe\n"
	for name, out := range outputs {
		if out != want {
			t.Errorf("%s output %q, want %q", name, out, want)
		}
	}
}

// A program that passes readv and writev one element more than IOV_MAX,
// then exactly IOV_MAX, against a regular file.
func init() {
	posix.Register(&posix.Program{Name: "t-iovmax", Main: func(p posix.Proc) int {
		fd, err := p.Open("/iov.txt", abi.O_RDWR|abi.O_CREAT|abi.O_TRUNC, 0o644)
		if err != abi.OK {
			return 1
		}
		for _, n := range []int{abi.IovMax + 1, abi.IovMax} {
			bufs := make([][]byte, n)
			for i := range bufs {
				bufs[i] = []byte{'a' + byte(i%26)}
			}
			wrote, err := p.Writev(fd, bufs)
			posix.Fprintf(p, abi.Stdout, "writev %d: %d %v\n", n, wrote, err)
		}
		for _, n := range []int{abi.IovMax + 1, abi.IovMax} {
			if _, err := p.Seek(fd, 0, abi.SEEK_SET); err != abi.OK {
				return 2
			}
			lens := make([]int, n)
			for i := range lens {
				lens[i] = 1
			}
			segs, err := p.Readv(fd, lens)
			var got []byte
			for _, s := range segs {
				got = append(got, s...)
			}
			posix.Fprintf(p, abi.Stdout, "readv %d: %d bytes %v\n", n, len(got), err)
		}
		return 0
	}})
}

// TestIovMaxAgreesAcrossTransports checks a vector one longer than
// IOV_MAX fails with EINVAL, and one of exactly IOV_MAX succeeds, on
// every transport.
func TestIovMaxAgreesAcrossTransports(t *testing.T) {
	want := "writev 1025: -1 EINVAL\nwritev 1024: 1024 success\nreadv 1025: 0 bytes EINVAL\nreadv 1024: 1024 bytes success\n"
	for _, v := range variants(transports) {
		w := v.boot(t)
		w.install(t, "/usr/bin/t-iovmax", "t-iovmax", v.tr.kind())
		code, out, errOut := w.run(t, "/usr/bin/t-iovmax")
		if code != 0 || out != want {
			t.Errorf("%s: exit %d, output %q (stderr %q), want %q", v, code, out, errOut, want)
		}
	}
}

// t-ringloop writes 16 bytes into a pipe and reads them back until
// ringLoopStop is set, counting each pair in ringLoopPairs. It runs on
// either transport.
var (
	ringLoopPairs int
	ringLoopStop  bool
)

func init() {
	posix.Register(&posix.Program{Name: "t-ringloop", Main: func(p posix.Proc) int {
		r, w, err := p.Pipe()
		if err != abi.OK {
			return 1
		}
		buf := []byte("0123456789abcdef")
		for !ringLoopStop {
			if n, err := p.Write(w, buf); err != abi.OK || n != len(buf) {
				return 2
			}
			if b, err := p.Read(r, 64); err != abi.OK || !bytes.Equal(b, buf) {
				return 3
			}
			ringLoopPairs++
		}
		return 0
	}})
}

// TestSyncRoundTripAllocs measures a warm synchronous pipe write plus
// read through the em-sync runtime and the kernel: for each call the
// runtime stages its arguments, pushes a frame and rings the doorbell,
// the kernel drains the ring and pushes the reply, and the futex wake
// resumes the runtime, which pops the reply. What is left is what the
// two calls copy: the write buffer out of the heap and the read payload
// out of it (two allocations; the limit leaves one more for the
// toolchain's escape analysis).
func TestSyncRoundTripAllocs(t *testing.T) {
	w := boot(t)
	pipeLoopAllocs(t, w, rt.EmSyncKind, &w.k.RingSyscalls, 3)
}

// TestAsyncRuntimeRoundTripAllocs measures a warm asynchronous pipe
// write plus read through the Node runtime and the kernel: for each
// call the runtime posts a call frame from its pool and parks, the
// kernel runs the op and posts a reply frame from the task's pool, and
// the runtime releases the reply once it has read the result. What is
// left is the write's clone of its buffer into the kernel (one
// allocation): the pipe keeps it, and the read's reply moves it out.
func TestAsyncRuntimeRoundTripAllocs(t *testing.T) {
	w := boot(t)
	pipeLoopAllocs(t, w, rt.NodeKind, &w.k.AsyncSyscalls, 1)
}

// pipeLoopAllocs runs t-ringloop in w on a runtime of kind and fails
// unless each warm write plus read is two calls counted by calls (the
// kernel's counter for that transport) and allocates at most limit
// times.
func pipeLoopAllocs(t *testing.T, w *world, kind rt.Kind, calls *atomic.Int64, limit float64) {
	w.install(t, "/usr/bin/t-ringloop", "t-ringloop", kind)
	ringLoopPairs, ringLoopStop = 0, false
	code := -1
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() {
		w.k.StartProcess(core.ProcSpec{
			Argv:   []string{"/usr/bin/t-ringloop"},
			OnExit: func(_, c int) { code = c },
		})
	})
	target := 0
	reached := func() bool { return ringLoopPairs >= target || code != -1 }
	pair := func() {
		target++
		w.sim.RunUntil(reached)
	}
	for i := 0; i < 16; i++ {
		pair()
	}
	before := calls.Load()
	n := testing.AllocsPerRun(200, pair)
	if code != -1 || ringLoopPairs != target {
		t.Fatalf("t-ringloop exited %d after %d of %d pairs", code, ringLoopPairs, target)
	}
	if got := calls.Load() - before; got != 2*201 {
		t.Fatalf("%d %s calls for 201 pairs, want 2 each", got, kind)
	}
	ringLoopStop = true
	if !w.sim.RunUntil(func() bool { return code != -1 }) || code != 0 {
		t.Fatalf("t-ringloop exit %d, want 0", code)
	}
	t.Logf("%s pipe write+read: %v allocations per pair", kind, n)
	if n > limit {
		t.Fatalf("%s pipe write+read allocated %v times per pair, want <= %v", kind, n, limit)
	}
}

// t-fileloop warms the page cache with one pass over /ro/loop.txt, then
// reads it again from the start in 4 KiB reads until fileLoopStop is
// set, counting each read in fileLoopReads.
var (
	fileLoopReads int
	fileLoopStop  bool
)

const fileLoopSize = 1 << 20

func init() {
	posix.Register(&posix.Program{Name: "t-fileloop", Main: func(p posix.Proc) int {
		fd, err := p.Open("/ro/loop.txt", abi.O_RDONLY, 0)
		if err != abi.OK {
			return 1
		}
		if b, err := posix.ReadAll(p, fd); err != abi.OK || len(b) != fileLoopSize {
			return 2
		}
		if _, err := p.Seek(fd, 0, abi.SEEK_SET); err != abi.OK {
			return 3
		}
		for !fileLoopStop {
			if b, err := p.Read(fd, 4096); err != abi.OK || len(b) != 4096 || b[4095] != 'x' {
				return 4
			}
			fileLoopReads++
		}
		return 0
	}})
}

// TestSyncFileReadAllocs measures a warm synchronous file read through
// the em-sync runtime and the kernel: a 4 KiB read the page cache
// answers with a view of a cached page. The kernel's read builds no
// lengths list and no completion closure (the call's continuation
// record carries both). What is left is the page cache's list of views
// and the runtime's copy of the payload for its caller (two allocations;
// the limit leaves one more for the toolchain's escape analysis).
func TestSyncFileReadAllocs(t *testing.T) {
	const limit = 3
	w := boot(t)
	w.install(t, "/usr/bin/t-fileloop", "t-fileloop", rt.EmSyncKind)
	mountRO(t, w, map[string][]byte{"/loop.txt": bytes.Repeat([]byte("x"), fileLoopSize)})
	fileLoopReads, fileLoopStop = 0, false
	code := -1
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() {
		w.k.StartProcess(core.ProcSpec{
			Argv:   []string{"/usr/bin/t-fileloop"},
			OnExit: func(_, c int) { code = c },
		})
	})
	target := 0
	reached := func() bool { return fileLoopReads >= target || code != -1 }
	read := func() {
		target++
		w.sim.RunUntil(reached)
	}
	for i := 0; i < 16; i++ {
		read()
	}
	n := testing.AllocsPerRun(200, read)
	if code != -1 || fileLoopReads != target {
		t.Fatalf("t-fileloop exited %d after %d of %d reads", code, fileLoopReads, target)
	}
	fileLoopStop = true
	if !w.sim.RunUntil(func() bool { return code != -1 }) || code != 0 {
		t.Fatalf("t-fileloop exit %d, want 0", code)
	}
	if n > limit {
		t.Fatalf("warm sync file read allocated %v times, want <= %d", n, limit)
	}
}

// t-seekloop writes seekLoopSize bytes to /seek.txt through an O_RDWR
// descriptor, then seeks back to 0 and reads them until seekLoopStop is
// set, counting each seek-and-read in seekLoopReads.
var (
	seekLoopReads int
	seekLoopStop  bool
)

const seekLoopSize = 4096

func init() {
	posix.Register(&posix.Program{Name: "t-seekloop", Main: func(p posix.Proc) int {
		fd, err := p.Open("/seek.txt", abi.O_RDWR|abi.O_CREAT|abi.O_TRUNC, 0o644)
		if err != abi.OK {
			return 1
		}
		if n, err := p.Write(fd, bytes.Repeat([]byte("y"), seekLoopSize)); err != abi.OK || n != seekLoopSize {
			return 2
		}
		for !seekLoopStop {
			if off, err := p.Seek(fd, 0, abi.SEEK_SET); err != abi.OK || off != 0 {
				return 3
			}
			if b, err := p.Read(fd, seekLoopSize); err != abi.OK || len(b) != seekLoopSize || b[seekLoopSize-1] != 'y' {
				return 4
			}
			seekLoopReads++
		}
		return 0
	}})
}

// TestSyncSeekReadAllocs measures a warm synchronous lseek plus read of
// a writable memfs file, which the page cache does not wrap, through
// the em-sync runtime and the kernel: the seek builds no closure, and
// memfs answers the read with a view of the file's bytes in its
// handle's one-segment list, which the kernel copies once into the
// heap. What is left is the runtime's copy of the payload for its
// caller (one allocation; the limit leaves one more for the
// toolchain's escape analysis).
func TestSyncSeekReadAllocs(t *testing.T) {
	const limit = 2
	w := boot(t)
	w.install(t, "/usr/bin/t-seekloop", "t-seekloop", rt.EmSyncKind)
	seekLoopReads, seekLoopStop = 0, false
	code := -1
	w.sim.Post(w.sys.Main.Sched(), w.sys.Main.Now(), func() {
		w.k.StartProcess(core.ProcSpec{
			Argv:   []string{"/usr/bin/t-seekloop"},
			OnExit: func(_, c int) { code = c },
		})
	})
	target := 0
	reached := func() bool { return seekLoopReads >= target || code != -1 }
	read := func() {
		target++
		w.sim.RunUntil(reached)
	}
	for i := 0; i < 16; i++ {
		read()
	}
	n := testing.AllocsPerRun(200, read)
	if code != -1 || seekLoopReads != target {
		t.Fatalf("t-seekloop exited %d after %d of %d reads", code, seekLoopReads, target)
	}
	seekLoopStop = true
	if !w.sim.RunUntil(func() bool { return code != -1 }) || code != 0 {
		t.Fatalf("t-seekloop exit %d, want 0", code)
	}
	t.Logf("warm sync seek+read: %v allocations", n)
	if n > limit {
		t.Fatalf("warm sync seek+read of a writable memfs file allocated %v times, want <= %d", n, limit)
	}
}
