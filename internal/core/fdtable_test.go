package core_test

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/posix"
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
