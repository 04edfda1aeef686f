package core_test

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/fs"
	"repro/internal/posix"
	"repro/internal/rt"
	"repro/internal/sched"
)

func init() {
	posix.Register(&posix.Program{Name: "t-dup2range", Main: func(p posix.Proc) int {
		for _, newfd := range []int{-7, abi.FdMax, abi.FdMax - 1} {
			err := p.Dup2(abi.Stdout, newfd)
			_, serr := p.Fstat(newfd)
			posix.Fprintf(p, abi.Stdout, "dup2(%d)=%v fstat=%v\n", newfd, err, serr)
		}
		if _, err := p.Write(abi.FdMax-1, []byte("via top fd\n")); err != abi.OK {
			return 1
		}
		if err := p.Close(abi.FdMax - 1); err != abi.OK {
			return 2
		}
		return 0
	}})
	posix.Register(&posix.Program{Name: "t-badargs", Main: func(p posix.Proc) int {
		fd, err := p.Open("/badargs", abi.O_RDWR|abi.O_CREAT, 0o644)
		if err != abi.OK {
			return 1
		}
		if _, err := p.Write(fd, []byte("0123456789")); err != abi.OK {
			return 2
		}
		say := func(call string, n int, err abi.Errno) {
			if err != abi.OK {
				posix.Fprintf(p, abi.Stdout, "%s: %v\n", call, err)
				return
			}
			posix.Fprintf(p, abi.Stdout, "%s = %d\n", call, n)
		}
		b, err := p.Pread(fd, 4, -4)
		say("pread(off -4)", len(b), err)
		b, err = p.Pread(fd, -1, 0)
		say("pread(n -1)", len(b), err)
		b, err = p.Read(fd, -1)
		say("read(n -1)", len(b), err)
		n, err := p.Pwrite(fd, []byte("x"), -1)
		say("pwrite(off -1)", n, err)
		say("ftruncate(-1)", 0, p.Ftruncate(fd, -1))
		for _, s := range []struct {
			off    int64
			whence int
		}{{-8, abi.SEEK_SET}, {-11, abi.SEEK_CUR}, {-11, abi.SEEK_END}, {0, 7}} {
			off, err := p.Seek(fd, s.off, s.whence)
			say(fmt.Sprintf("seek(%d, %d)", s.off, s.whence), int(off), err)
		}
		// The refused seeks left the offset at the end of the file.
		b, err = p.Read(fd, 4)
		say("read after refused seeks", len(b), err)
		say("dup2(1, -3)", 0, p.Dup2(abi.Stdout, -3))
		say("dup2(1, FdMax)", 0, p.Dup2(abi.Stdout, abi.FdMax))
		say("dup2(99, 5)", 0, p.Dup2(99, 5))
		// dup2 onto an open descriptor closes it; the two descriptors
		// then share one open file, which outlives closing either.
		fd2, err := p.Open("/badargs", abi.O_RDONLY, 0)
		if err != abi.OK {
			return 3
		}
		say("dup2(fd, fd2)", 0, p.Dup2(fd, fd2))
		off, err := p.Seek(fd, 2, abi.SEEK_SET)
		say("seek(fd, 2)", int(off), err)
		say("close(fd)", 0, p.Close(fd))
		b, err = p.Read(fd2, 3)
		posix.Fprintf(p, abi.Stdout, "read(fd2) = %q %v\n", b, err)
		say("close(fd2)", 0, p.Close(fd2))
		b, err = p.Read(fd2, 3)
		say("read(fd2) after close", len(b), err)
		// A directory's cursor seeks like a file offset.
		dfd, err := p.Open("/", abi.O_RDONLY, 0)
		if err != abi.OK {
			return 4
		}
		for _, s := range []struct {
			off    int64
			whence int
		}{{-8, abi.SEEK_SET}, {5, abi.SEEK_CUR}, {0, abi.SEEK_END}} {
			off, err := p.Seek(dfd, s.off, s.whence)
			say(fmt.Sprintf("seek(/, %d, %d)", s.off, s.whence), int(off), err)
		}
		p.Close(dfd)
		return 0
	}})
}

// TestHostProcRejectsLikeKernel: the host runtime of Figure 9's
// baselines answers bad arguments with the errnos the kernel's op table
// gives a Browsix process on every transport: EINVAL for negative counts
// and offsets, EBADF for dup2 outside [0, FdMax) or from a closed fd.
// dup2 onto an open descriptor replaces it with a shared open file, and
// a directory's cursor seeks like a file offset.
func TestHostProcRejectsLikeKernel(t *testing.T) {
	sim := sched.New()
	sim.MaxSteps = 100_000
	clock := func() int64 { return sim.Now() }
	host := rt.RunHost(sim, fs.NewFileSystem(fs.NewMemFS(clock), clock), rt.NativeKind, []string{"t-badargs"}, nil, "/")
	if host.Code != 0 {
		t.Fatalf("host: exited %d (stderr %q)", host.Code, host.Stderr)
	}
	want := "pread(off -4): EINVAL\npread(n -1): EINVAL\nread(n -1): EINVAL\n" +
		"pwrite(off -1): EINVAL\nftruncate(-1): EINVAL\n" +
		"seek(-8, 0): EINVAL\nseek(-11, 1): EINVAL\nseek(-11, 2): EINVAL\nseek(0, 7): EINVAL\n" +
		"read after refused seeks = 0\n" +
		"dup2(1, -3): EBADF\ndup2(1, FdMax): EBADF\ndup2(99, 5): EBADF\n" +
		"dup2(fd, fd2) = 0\nseek(fd, 2) = 2\nclose(fd) = 0\n" +
		"read(fd2) = \"234\" success\nclose(fd2) = 0\nread(fd2) after close: EBADF\n" +
		"seek(/, -8, 0): EINVAL\nseek(/, 5, 1) = 5\nseek(/, 0, 2) = 0\n"
	if string(host.Stdout) != want {
		t.Errorf("host:\n%s\nwant:\n%s", host.Stdout, want)
	}
	for _, v := range variants(transports) {
		w := v.boot(t)
		w.install(t, "/usr/bin/t-badargs", "t-badargs", v.tr.kind())
		code, out, errOut := w.run(t, "/usr/bin/t-badargs")
		if code != 0 {
			t.Fatalf("%s: exited %d (stderr %q)", v, code, errOut)
		}
		if out != want {
			t.Errorf("%s:\n%s\nwant:\n%s", v, out, want)
		}
	}
}

// TestDup2OutOfRangeEBADF: dup2 to a descriptor outside [0, FdMax)
// fails with EBADF and installs nothing, and FdMax-1 is a usable
// descriptor, identically on every transport.
func TestDup2OutOfRangeEBADF(t *testing.T) {
	want := fmt.Sprintf("dup2(-7)=%v fstat=%v\ndup2(%d)=%v fstat=%v\ndup2(%d)=%v fstat=%v\nvia top fd\n",
		abi.EBADF, abi.EBADF, abi.FdMax, abi.EBADF, abi.EBADF, abi.FdMax-1, abi.OK, abi.OK)
	for _, v := range variants(transports) {
		w := v.boot(t)
		w.install(t, "/usr/bin/t-dup2range", "t-dup2range", v.tr.kind())
		code, out, errOut := w.run(t, "/usr/bin/t-dup2range")
		if code != 0 {
			t.Fatalf("%s: exited %d (stderr %q)", v, code, errOut)
		}
		if out != want {
			t.Errorf("%s: %q, want %q", v, out, want)
		}
	}
}
