package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/posix"
)

// wbLine is the line t-writeback appends 200 times.
var wbLine = []byte("log line for the write-back differential........\n")

// t-writeback is the crash-consistency-style differential program: a
// pdflatex-shaped append burst with an fsync in the middle, a stat of
// the file still open for writing, a batched stat storm, and a full
// readback. Its output must be byte-identical on every transport.
func init() {
	posix.Register(&posix.Program{Name: "t-writeback", Main: func(p posix.Proc) int {
		fd, err := p.Open("/wb.log", abi.O_WRONLY|abi.O_CREAT|abi.O_APPEND, 0o644)
		if err != abi.OK {
			return 1
		}
		for i := 0; i < 100; i++ {
			if _, err := p.Write(fd, wbLine); err != abi.OK {
				return 2
			}
		}
		// Stat while the writer is still open: every completed write
		// counts in the size.
		st, serr := p.Stat("/wb.log")
		if serr != abi.OK {
			return 3
		}
		posix.Fprintf(p, abi.Stdout, "mid size=%d\n", st.Size)
		if err := p.Fsync(fd); err != abi.OK {
			return 4
		}
		for i := 0; i < 100; i++ {
			if _, err := p.Write(fd, wbLine); err != abi.OK {
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

		// Full readback: prove every written byte landed, in order.
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

// TestWriteBackIdenticalAcrossTransports runs t-writeback on the async
// and ring transports: both outputs must be byte-identical, and the stat
// taken mid-burst must count every write that had returned. (The name
// predates the deletion of the write-back cache.)
func TestWriteBackIdenticalAcrossTransports(t *testing.T) {
	outputs := map[string]string{}
	mid := fmt.Sprintf("mid size=%d\n", 100*len(wbLine))
	for _, v := range variants(transports) {
		w := v.boot(t)
		w.install(t, "/usr/bin/t-writeback", "t-writeback", v.tr.kind())
		code, out, errOut := w.run(t, "/usr/bin/t-writeback")
		if code != 0 {
			t.Fatalf("%s: exited %d (stderr %q)", v, code, errOut)
		}
		if !strings.HasPrefix(out, mid) {
			t.Errorf("%s: output %q does not start with %q", v, out, mid)
		}
		outputs[v.String()] = out
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

// TestFsyncAcrossTransports: fsync on a pipe and on a bad fd behave
// identically everywhere.
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
