package netsim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/httpx"
	"repro/internal/sched"
)

// pipeConn is a scripted keep-alive server connection: it answers the
// i-th request with bodies[i] and releases responses to the reader only
// once every request has been answered, so all of them arrive in one
// read — the pipelined case.
type pipeConn struct {
	sim     *sched.Sim
	ctx     *sched.Ctx
	bodies  []string
	served  int
	out     []byte
	pending func([]byte, abi.Errno)
}

func (p *pipeConn) Write(data []byte, cb func(int, abi.Errno)) {
	for n := bytes.Count(data, []byte("\r\n\r\n")); n > 0; n-- {
		body := p.bodies[p.served]
		p.served++
		p.out = append(p.out, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)...)
	}
	p.sim.PostDelay(p.ctx, 0, func() { cb(len(data), abi.OK); p.release() })
}

func (p *pipeConn) Read(n int, cb func([]byte, abi.Errno)) {
	p.pending = cb
	p.release()
}

func (p *pipeConn) release() {
	if p.pending == nil || p.served < len(p.bodies) {
		return
	}
	cb, out := p.pending, p.out
	p.pending, p.out = nil, nil
	p.sim.PostDelay(p.ctx, 0, func() { cb(out, abi.OK) })
}

func (p *pipeConn) Close() {}

// TestSwarmPipelinedBodiesIntact: responses that arrive together on one
// keep-alive connection each reach OnResponse with their own body bytes.
func TestSwarmPipelinedBodiesIntact(t *testing.T) {
	sim := sched.New()
	want := []string{"ok", "on", "of"}
	conn := &pipeConn{sim: sim, ctx: sim.NewCtx("server"), bodies: want}
	got := make([]string, len(want))
	s := &Swarm{
		Clients: 1, PerClient: len(want), OpenLoop: true, KeepAlive: true,
		Request: func(client, seq int) *httpx.Request {
			return &httpx.Request{Method: "GET", Path: "/", Proto: "HTTP/1.1"}
		},
		OnResponse: func(client, seq int, resp *httpx.Response) { got[seq] = string(resp.Body) },
	}
	var rep LoadReport
	done := false
	s.Start(sim, func(cb func(Conn, abi.Errno)) { cb(conn, abi.OK) }, func(r LoadReport) { rep, done = r, true })
	sim.RunUntil(func() bool { return done })
	if !done || rep.Requests != len(want) || rep.Errors != 0 {
		t.Fatalf("swarm did not complete cleanly: done=%v report=%+v", done, rep)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("response %d body %q, want %q", i, got[i], want[i])
		}
	}
}
