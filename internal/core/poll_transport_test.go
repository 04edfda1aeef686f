package core_test

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/posix"
)

// t-pollpair polls one pollfd set several times in a row while the
// readiness of its pipes changes between polls, printing each poll's
// revents. The set arrives with stale revents each time, as a caller's
// reused array would.
func init() {
	posix.Register(&posix.Program{Name: "t-pollpair", Main: func(p posix.Proc) int {
		ra, wa, err := p.Pipe()
		if err != abi.OK {
			return 1
		}
		rb, wb, err := p.Pipe()
		if err != abi.OK {
			return 2
		}
		fds := []abi.Pollfd{
			{Fd: int32(ra), Events: abi.POLLIN},
			{Fd: int32(rb), Events: abi.POLLIN},
			{Fd: int32(wb), Events: abi.POLLOUT},
		}
		poll := func(step string) {
			for i := range fds {
				fds[i].Revents = 0xff
			}
			n, err := p.Poll(fds, 0)
			posix.Fprintf(p, abi.Stdout, "%s n=%d err=%d revents=%d,%d,%d\n", step, n, err, fds[0].Revents, fds[1].Revents, fds[2].Revents)
		}
		p.Write(wa, []byte("a"))
		poll("a-ready")
		p.Read(ra, 16)
		p.Write(wb, []byte("b"))
		poll("b-ready")
		p.Read(rb, 16)
		poll("none-ready")
		p.Close(wa)
		poll("a-hup")
		return 0
	}})
}

// TestConsecutivePollsRevents runs t-pollpair on both transports: every
// poll reports the readiness of its own moment. On the asynchronous
// transport the runtime sends each poll the array the previous reply
// carried back, so the reply's records are the call's own array; a
// codec that cleared the caller's revents before reading the reply's
// would read every revent back as 0.
func TestConsecutivePollsRevents(t *testing.T) {
	const (
		in, out, hup = abi.POLLIN, abi.POLLOUT, abi.POLLIN | abi.POLLHUP
	)
	want := fmt.Sprintf("a-ready n=2 err=0 revents=%d,0,%d\n", in, out) +
		fmt.Sprintf("b-ready n=2 err=0 revents=0,%d,%d\n", in, out) +
		fmt.Sprintf("none-ready n=1 err=0 revents=0,0,%d\n", out) +
		fmt.Sprintf("a-hup n=2 err=0 revents=%d,0,%d\n", hup, out)
	for _, tr := range transports {
		w := boot(t)
		w.install(t, "/usr/bin/t-pollpair", "t-pollpair", tr.kind())
		code, got, errOut := w.run(t, "/usr/bin/t-pollpair")
		if code != 0 {
			t.Fatalf("%s: exited %d (stderr %q)", tr, code, errOut)
		}
		if got != want {
			t.Errorf("%s: output\n%s\nwant\n%s", tr, got, want)
		}
	}
}
