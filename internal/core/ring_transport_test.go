package core_test

import (
	"bytes"
	"testing"

	"repro/internal/abi"
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
