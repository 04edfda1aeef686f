package core_test

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/posix"
)

// t-writeback is the crash-consistency-style differential program: a
// pdflatex-shaped append burst with an fsync barrier in the middle, a
// stat while bytes are still buffered, a batched stat storm, and a full
// readback. Its output must be byte-identical on every transport and
// with the write-back cache on or off.
func init() {
	posix.Register(&posix.Program{Name: "t-writeback", Main: func(p posix.Proc) int {
		fd, err := p.Open("/wb.log", abi.O_WRONLY|abi.O_CREAT|abi.O_APPEND, 0o644)
		if err != abi.OK {
			return 1
		}
		line := []byte("log line for the write-back differential........\n")
		for i := 0; i < 100; i++ {
			if _, err := p.Write(fd, line); err != abi.OK {
				return 2
			}
		}
		// Stat while the tail of the burst may still be buffered: the
		// VFS must report the virtual (buffered) size.
		st, serr := p.Stat("/wb.log")
		if serr != abi.OK {
			return 3
		}
		posix.Fprintf(p, abi.Stdout, "mid size=%d\n", st.Size)
		if err := p.Fsync(fd); err != abi.OK {
			return 4
		}
		for i := 0; i < 100; i++ {
			if _, err := p.Write(fd, line); err != abi.OK {
				return 5
			}
		}
		if err := p.Close(fd); err != abi.OK {
			return 6
		}

		// Batched stat storm over present and missing names.
		paths := []string{"/wb.log", "/missing-a", "/wb.log", "/missing-b"}
		sts, errs := p.StatBatch(paths, false)
		for i := range paths {
			posix.Fprintf(p, abi.Stdout, "stat %s: size=%d err=%d\n", paths[i], sts[i].Size, int(errs[i]))
		}

		// Full readback: prove every buffered byte landed, in order.
		rfd, err := p.Open("/wb.log", abi.O_RDONLY, 0)
		if err != abi.OK {
			return 7
		}
		var total, sum int
		for {
			b, rerr := p.Read(rfd, 32*1024)
			if rerr != abi.OK {
				return 8
			}
			if len(b) == 0 {
				break
			}
			for _, c := range b {
				sum = (sum*131 + int(c)) % 1000003
			}
			total += len(b)
		}
		p.Close(rfd)
		posix.Fprintf(p, abi.Stdout, "final size=%d hash=%d\n", total, sum)
		return 0
	}})
}

// TestWriteBackIdenticalAcrossTransports runs t-writeback on the async,
// scalar-sync, and ring transports, each with the write-back data path
// on and off: all six outputs must be byte-identical, and the
// write-back runs must actually coalesce (buffered writes >> flushes).
func TestWriteBackIdenticalAcrossTransports(t *testing.T) {
	outputs := map[string]string{}
	for _, v := range variants(transports, core.Features{NoWriteBack: true}) {
		w := v.boot(t)
		w.install(t, "/usr/bin/t-writeback", "t-writeback", v.tr.kind())
		before := w.fs.CacheStats()
		code, out, errOut := w.run(t, "/usr/bin/t-writeback")
		if code != 0 {
			t.Fatalf("%s: exited %d (stderr %q)", v, code, errOut)
		}
		outputs[v.String()] = out
		stats := w.fs.CacheStats()
		buffered := stats.BufferedWrites - before.BufferedWrites
		flushed := stats.FlushWrites - before.FlushWrites
		if !v.ft.NoWriteBack {
			if buffered < 200 {
				t.Errorf("%s: only %d writes buffered", v, buffered)
			}
			if flushed >= buffered/10 {
				t.Errorf("%s: %d flush writes for %d buffered — no coalescing",
					v, flushed, buffered)
			}
		} else if buffered != 0 {
			t.Errorf("%s: write-back off but %d writes buffered", v, buffered)
		}
	}
	var want string
	for _, out := range outputs {
		want = out
		break
	}
	for name, out := range outputs {
		if out != want {
			t.Errorf("%s output diverges:\n%q\nvs\n%q", name, out, want)
		}
	}
}

// TestFsyncAcrossTransports: fsync on a pipe (no buffered state) and on
// a bad fd behave identically everywhere.
func init() {
	posix.Register(&posix.Program{Name: "t-fsync-edge", Main: func(p posix.Proc) int {
		r, w, err := p.Pipe()
		if err != abi.OK {
			return 1
		}
		posix.Fprintf(p, abi.Stdout, "pipe fsync=%d\n", int(p.Fsync(w)))
		posix.Fprintf(p, abi.Stdout, "badfd fsync=%d\n", int(p.Fsync(99)))
		p.Close(r)
		p.Close(w)
		return 0
	}})
}

func TestFsyncAcrossTransports(t *testing.T) {
	want := "pipe fsync=0\nbadfd fsync=9\n"
	for _, v := range variants(transports) {
		w := v.boot(t)
		w.install(t, "/usr/bin/t-fsync-edge", "t-fsync-edge", v.tr.kind())
		code, out, errOut := w.run(t, "/usr/bin/t-fsync-edge")
		if code != 0 {
			t.Fatalf("%s: exited %d (stderr %q)", v, code, errOut)
		}
		if out != want {
			t.Errorf("%s: %q, want %q", v, out, want)
		}
	}
}
