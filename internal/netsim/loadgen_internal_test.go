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

// countConn is a keep-alive fake server connection that answers every
// request with a 2-byte body and counts its closes. A connection made
// with breakAfter > 0 fails every write after serving that many
// responses, as a peer reset would.
type countConn struct {
	sim        *sched.Sim
	ctx        *sched.Ctx
	closes     int
	served     int
	breakAfter int
	out        []byte
	pending    func([]byte, abi.Errno)
}

func (c *countConn) Write(data []byte, cb func(int, abi.Errno)) {
	if c.breakAfter > 0 && c.served >= c.breakAfter {
		c.sim.PostDelay(c.ctx, 1000, func() { cb(0, abi.EPIPE) })
		return
	}
	for n := bytes.Count(data, []byte("\r\n\r\n")); n > 0; n-- {
		c.served++
		c.out = append(c.out, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"...)
	}
	c.sim.PostDelay(c.ctx, 1000, func() { cb(len(data), abi.OK); c.release() })
}

func (c *countConn) Read(n int, cb func([]byte, abi.Errno)) {
	c.pending = cb
	c.release()
}

func (c *countConn) release() {
	if c.pending == nil || len(c.out) == 0 {
		return
	}
	cb, out := c.pending, c.out
	c.pending, c.out = nil, nil
	c.sim.PostDelay(c.ctx, 1000, func() { cb(out, abi.OK) })
}

// Close counts, and ends a parked read with EOF the way a kernel
// socket does, which the client's stale read pump must ignore.
func (c *countConn) Close() {
	c.closes++
	if cb := c.pending; cb != nil {
		c.pending = nil
		c.sim.PostDelay(c.ctx, 1000, func() { cb(nil, abi.OK) })
	}
}

// TestSwarmClosesConnsBeforeDone: by the time a swarm reports, every
// connection it dialed has been closed exactly once, so a finished
// swarm leaves no idle keep-alive connection open on the server. It
// holds for open and closed loops, for per-request connections, and for
// a swarm in which one client's connection breaks and the client dies
// after exhausting its dial retries.
func TestSwarmClosesConnsBeforeDone(t *testing.T) {
	cases := []struct {
		name       string
		open, keep bool
		dials      int // dials that succeed; later ones are refused (0: all succeed)
		breakFirst int // the first connection breaks after this many responses
		wantErrors bool
	}{
		{name: "open-loop", open: true, keep: true},
		{name: "closed-loop", keep: true},
		{name: "closed-loop-per-request-conns"},
		{name: "client-dies-after-retries", keep: true, dials: 2, breakFirst: 1, wantErrors: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := sched.New()
			sim.MaxSteps = 1_000_000
			srv := sim.NewCtx("server")
			var conns []*countConn
			dial := func(cb func(Conn, abi.Errno)) {
				if tc.dials > 0 && len(conns) >= tc.dials {
					sim.PostDelay(srv, 1000, func() { cb(nil, abi.ECONNREFUSED) })
					return
				}
				c := &countConn{sim: sim, ctx: srv}
				if len(conns) == 0 {
					c.breakAfter = tc.breakFirst
				}
				conns = append(conns, c)
				sim.PostDelay(srv, 1000, func() { cb(c, abi.OK) })
			}
			s := &Swarm{
				Clients: 3, PerClient: 4, Seed: 9, OpenLoop: tc.open, KeepAlive: tc.keep,
				MeanGapNs: 50_000,
				Request: func(client, seq int) *httpx.Request {
					return &httpx.Request{Method: "GET", Path: "/healthz"}
				},
			}
			var rep LoadReport
			done := false
			s.Start(sim, dial, func(r LoadReport) {
				rep, done = r, true
				for i, c := range conns {
					if c.closes != 1 {
						t.Errorf("at done: connection %d closed %d times, want 1", i, c.closes)
					}
				}
			})
			sim.Run()
			if !done {
				t.Fatal("swarm never reported")
			}
			if len(conns) == 0 {
				t.Fatal("swarm dialed nothing")
			}
			for i, c := range conns {
				if c.closes != 1 {
					t.Errorf("after settling: connection %d closed %d times, want 1", i, c.closes)
				}
			}
			if tc.wantErrors && (rep.Errors == 0 || rep.Retries <= lgDialRetries) {
				t.Errorf("no client died after its dial retries: %+v", rep)
			}
			if !tc.wantErrors && (rep.Errors != 0 || rep.Requests != 12) {
				t.Errorf("swarm did not complete cleanly: %+v", rep)
			}
		})
	}
}
