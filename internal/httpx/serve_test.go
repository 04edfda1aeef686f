package httpx

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/abi"
	"repro/internal/posix"
)

// fakeClient is one peer of the scripted network: the request bytes it
// has still to send, what the server wrote back, and its connection's
// kernel state once accepted.
type fakeClient struct {
	id      int
	fd      int    // -1 until accepted
	pending []byte // request bytes not yet sent
	in      []byte // sent bytes the server has not read yet
	reqs    []int  // end offsets of each request within everything sent
	sent    int    // bytes sent so far
	got     []byte // bytes the server wrote
	hup     bool   // peer half-closed its write side
	wcap    int    // bytes the socket takes before EAGAIN; < 0 unlimited
	short   bool   // the server's last write was cut short
	closed  bool   // the server closed its fd
	yanked  bool   // its fd was closed behind the server's back
}

// fakeNet is a scripted posix.Proc for Serve. It keeps a kernel fd
// table (lowest free descriptor first, 0-2 taken by stdio), a listener
// backlog and per-connection byte streams, and answers Poll with
// level-triggered readiness. Before each Poll it runs one pass of the
// script. It records every poll set and checks each against the
// connections the server owns: accepted, and neither closed by the
// server nor already reported POLLNVAL.
type fakeNet struct {
	posix.Proc
	t       testing.TB
	lfd     int
	lclosed bool
	fds     map[int]*fakeClient // open connection fds
	owned   map[int]*fakeClient // the server's view of its connections
	backlog []*fakeClient
	clients []*fakeClient
	passes  [][]func(*fakeNet)
	extra   map[int]uint32 // poll record index -> spurious revents, next poll only
	sets    [][]abi.Pollfd
}

// fakeMaxPolls fails a Serve that keeps polling without finishing.
const fakeMaxPolls = 10000

// FuzzServe's bounds keep one script's run short: a few accept batches'
// worth of clients and a few hundred operations.
const (
	fuzzMaxClients = 256
	fuzzMaxScript  = 1200
)

func newFakeNet(t testing.TB) *fakeNet {
	return &fakeNet{t: t, lfd: -1, fds: map[int]*fakeClient{}, owned: map[int]*fakeClient{}, extra: map[int]uint32{}}
}

func (f *fakeNet) lowestFree() int {
	fd := 3
	for fd == f.lfd || f.fds[fd] != nil {
		fd++
	}
	return fd
}

// connect queues a new client whose request stream is n requests; the
// i-th asks to close the connection when closeAt == i.
func (f *fakeNet) connect(n, closeAt int) *fakeClient {
	c := &fakeClient{id: len(f.clients), fd: -1, wcap: -1}
	for i := 0; i < n; i++ {
		hdr := ""
		if i == closeAt {
			hdr = "Connection: close\r\n"
		}
		c.pending = append(c.pending, fmt.Sprintf("GET /c%d/r%d HTTP/1.1\r\n%s\r\n", c.id, i, hdr)...)
		c.reqs = append(c.reqs, len(c.pending))
	}
	f.clients = append(f.clients, c)
	f.backlog = append(f.backlog, c)
	return c
}

// send moves up to n of c's pending request bytes onto the wire.
func (c *fakeClient) send(n int) {
	if c.hup {
		return
	}
	n = min(n, len(c.pending))
	c.in = append(c.in, c.pending[:n]...)
	c.pending = c.pending[n:]
	c.sent += n
}

// complete counts the requests c has sent in full.
func (c *fakeClient) complete() int {
	n := 0
	for n < len(c.reqs) && c.reqs[n] <= c.sent {
		n++
	}
	return n
}

// responses parses what the server wrote to c, checking each body names
// the request it answers, in order.
func (c *fakeClient) responses(t testing.TB) int {
	buf, n := c.got, 0
	for len(buf) > 0 {
		resp, rest, err := ParseBufferedResponse(buf, false)
		if err != abi.OK {
			break
		}
		if want := fmt.Sprintf("/c%d/r%d", c.id, n); string(resp.Body) != want {
			t.Fatalf("client %d response %d: body %q, want %q", c.id, n, resp.Body, want)
		}
		buf, n = rest, n+1
	}
	return n
}

func (f *fakeNet) Socket() (int, abi.Errno) {
	f.lfd = f.lowestFree()
	return f.lfd, abi.OK
}
func (f *fakeNet) Bind(fd, port int) abi.Errno      { return abi.OK }
func (f *fakeNet) Listen(fd, backlog int) abi.Errno { return abi.OK }
func (f *fakeNet) Setfl(fd, flags int) abi.Errno    { return abi.OK }

func (f *fakeNet) AcceptBatch(fd, max int) ([]int, abi.Errno) {
	if fd != f.lfd || f.lclosed {
		return nil, abi.EBADF
	}
	var out []int
	for len(f.backlog) > 0 && len(out) < max {
		c := f.backlog[0]
		f.backlog = f.backlog[1:]
		c.fd = f.lowestFree()
		f.fds[c.fd] = c
		f.owned[c.fd] = c
		out = append(out, c.fd)
	}
	return out, abi.OK
}

// conn resolves fd for a server call, failing the test if the server
// uses a descriptor it does not own.
func (f *fakeNet) conn(op string, fd int) *fakeClient {
	c := f.owned[fd]
	if c == nil {
		f.t.Fatalf("%s(%d): not a connection the server owns", op, fd)
	}
	return c
}

func (f *fakeNet) Read(fd, n int) ([]byte, abi.Errno) {
	c := f.conn("read", fd)
	switch {
	case f.fds[fd] != c:
		return nil, abi.EBADF
	case len(c.in) > 0:
		n = min(n, len(c.in))
		b := slices.Clone(c.in[:n])
		c.in = c.in[n:]
		return b, abi.OK
	case c.hup:
		return nil, abi.OK
	}
	return nil, abi.EAGAIN
}

func (f *fakeNet) Write(fd int, b []byte) (int, abi.Errno) {
	c := f.conn("write", fd)
	if f.fds[fd] != c {
		return 0, abi.EBADF
	}
	n := len(b)
	if c.wcap >= 0 {
		n = min(n, c.wcap)
		c.wcap -= n
	}
	c.got = append(c.got, b[:n]...)
	c.short = n < len(b)
	if n == 0 && len(b) > 0 {
		return 0, abi.EAGAIN
	}
	return n, abi.OK
}

func (f *fakeNet) Close(fd int) abi.Errno {
	if fd == f.lfd {
		f.lclosed = true
		return abi.OK
	}
	c := f.conn("close", fd)
	delete(f.owned, fd)
	if f.fds[fd] != c {
		return abi.EBADF
	}
	delete(f.fds, fd)
	c.closed = true
	return abi.OK
}

// yank closes c's descriptor behind the server's back, as a signal
// handler might: the server sees POLLNVAL and the fd is free to reuse.
func (f *fakeNet) yank(c *fakeClient) {
	if c.fd >= 0 && f.fds[c.fd] == c {
		delete(f.fds, c.fd)
		c.yanked = true
	}
}

// checkSet asserts the poll set is the listener, then every owned
// connection in strictly ascending fd order, each waiting for POLLOUT
// exactly when its last write was cut short.
func (f *fakeNet) checkSet(fds []abi.Pollfd) {
	f.t.Helper()
	if len(fds) == 0 || int(fds[0].Fd) != f.lfd || fds[0].Events != abi.POLLIN {
		f.t.Fatalf("poll set %v: want the listener (fd %d, POLLIN) first", fds, f.lfd)
	}
	want := make([]int, 0, len(f.owned))
	for fd := range f.owned {
		want = append(want, fd)
	}
	slices.Sort(want)
	got := make([]int, 0, len(fds)-1)
	for _, p := range fds[1:] {
		got = append(got, int(p.Fd))
	}
	if !slices.Equal(got, want) {
		f.t.Fatalf("poll set %v after the listener, want the owned connections %v", got, want)
	}
	for _, p := range fds[1:] {
		ev := uint32(abi.POLLIN)
		if f.owned[int(p.Fd)].short {
			ev = abi.POLLOUT
		}
		if p.Events != ev {
			f.t.Fatalf("fd %d polls events %#x, want %#x", p.Fd, p.Events, ev)
		}
	}
}

// readiness fills revents level-triggered from the fake's state.
func (f *fakeNet) readiness(fds []abi.Pollfd) int {
	ready := 0
	for i := range fds {
		p := &fds[i]
		p.Revents = 0
		fd := int(p.Fd)
		if fd == f.lfd {
			switch {
			case f.lclosed:
				p.Revents = abi.POLLNVAL
			case len(f.backlog) > 0:
				p.Revents = abi.POLLIN
			}
		} else if c := f.fds[fd]; c == nil {
			p.Revents = abi.POLLNVAL
		} else {
			if p.Events&abi.POLLIN != 0 && (len(c.in) > 0 || c.hup) {
				p.Revents |= abi.POLLIN
			}
			if c.hup {
				p.Revents |= abi.POLLHUP
			}
			if p.Events&abi.POLLOUT != 0 && c.wcap != 0 {
				p.Revents |= abi.POLLOUT
			}
		}
		if i > 0 {
			p.Revents |= f.extra[i]
		}
		if p.Revents != 0 {
			ready++
		}
	}
	return ready
}

// Poll checks and records the set, runs script passes until something
// is ready, and once the script is spent unblocks every socket; when
// nothing is left to do it closes the listener, which ends Serve.
func (f *fakeNet) Poll(fds []abi.Pollfd, timeoutNs int64) (int, abi.Errno) {
	f.checkSet(fds)
	f.sets = append(f.sets, slices.Clone(fds))
	if len(f.sets) > fakeMaxPolls {
		f.t.Fatalf("Serve polled %d times without finishing", len(f.sets))
	}
	clear(f.extra)
	if f.lclosed {
		f.t.Fatal("Serve polled again after its listener died")
	}
	for {
		if len(f.passes) > 0 {
			for _, op := range f.passes[0] {
				op(f)
			}
			f.passes = f.passes[1:]
		}
		if len(f.passes) == 0 {
			for _, c := range f.fds {
				c.wcap = -1
			}
		}
		if ready := f.readiness(fds); ready > 0 {
			for i, p := range fds {
				if i > 0 && p.Revents&abi.POLLNVAL != 0 {
					delete(f.owned, int(p.Fd))
				}
			}
			return ready, abi.OK
		}
		if len(f.passes) == 0 {
			f.lclosed = true
		}
	}
}

// pass appends one scripted pass.
func (f *fakeNet) pass(ops ...func(*fakeNet)) { f.passes = append(f.passes, ops) }

// serve runs Serve to completion over the script, then checks every
// client was served in full or had its connection closed.
func (f *fakeNet) serve() {
	f.t.Helper()
	handler := func(req *Request) *Response { return &Response{Status: 200, Body: []byte(req.Path)} }
	if err := Serve(f, 80, handler); err != abi.OK {
		f.t.Fatalf("Serve: %v", err)
	}
	for _, c := range f.clients {
		if c.fd < 0 {
			f.t.Fatalf("client %d never accepted", c.id)
		}
		if c.closed || c.yanked {
			continue
		}
		if got, want := c.responses(f.t), c.complete(); got != want {
			f.t.Fatalf("client %d (fd %d, still open): %d responses to %d requests", c.id, c.fd, got, want)
		}
	}
}

// sendAll sends every pending request byte of cs.
func sendAll(cs ...*fakeClient) {
	for _, c := range cs {
		c.send(len(c.pending))
	}
}

// TestServePollSetContract drives Serve through a scripted network and
// checks every poll set it builds: the listener first, then exactly the
// live connections in strictly ascending fd order with the events their
// output queues call for.
func TestServePollSetContract(t *testing.T) {
	t.Run("accepts land below live fds", func(t *testing.T) {
		f := newFakeNet(t)
		var a, b, c, d, e, g *fakeClient
		f.pass(func(f *fakeNet) {
			a, b, c, d = f.connect(1, 0), f.connect(1, 0), f.connect(2, -1), f.connect(2, -1)
		})
		f.pass(func(*fakeNet) { sendAll(a, b) }) // Connection: close frees fds 4 and 5
		f.pass(func(f *fakeNet) { e, g = f.connect(1, -1), f.connect(1, -1) })
		f.pass(func(*fakeNet) { sendAll(c, d) })
		f.pass(func(*fakeNet) { sendAll(e, g) })
		f.serve()
		if a.fd != 4 || e.fd != a.fd || g.fd != b.fd || c.fd != 6 {
			t.Fatalf("fds a=%d b=%d c=%d e=%d g=%d: want e and g to reuse a's and b's", a.fd, b.fd, c.fd, e.fd, g.fd)
		}
		if !slices.ContainsFunc(f.sets, func(s []abi.Pollfd) bool { return len(s) == 5 && s[1].Fd == int32(e.fd) }) {
			t.Fatalf("no poll set held the reused fds below the live ones: %v", f.sets)
		}
	})

	t.Run("backpressured connection polls POLLOUT", func(t *testing.T) {
		f := newFakeNet(t)
		var a, b *fakeClient
		f.pass(func(f *fakeNet) { a, b = f.connect(3, -1), f.connect(1, -1) })
		// a's reader takes 10 bytes and stalls until the script ends,
		// one pass later.
		f.pass(func(*fakeNet) { a.wcap = 10; sendAll(a, b) })
		f.pass()
		f.serve()
		parked := slices.ContainsFunc(f.sets, func(s []abi.Pollfd) bool {
			return len(s) == 3 && s[1] == abi.Pollfd{Fd: int32(a.fd), Events: abi.POLLOUT} && s[2].Events == abi.POLLIN
		})
		if !parked {
			t.Fatalf("no poll set parked fd %d on POLLOUT beside a reading fd %d: %v", a.fd, b.fd, f.sets)
		}
		if a.responses(t) != 3 || b.responses(t) != 1 {
			t.Fatalf("responses a=%d b=%d, want 3 and 1", a.responses(t), b.responses(t))
		}
	})

	t.Run("POLLNVAL and a reusing accept in one pass", func(t *testing.T) {
		f := newFakeNet(t)
		var a, b, c *fakeClient
		f.pass(func(f *fakeNet) { a, b = f.connect(1, -1), f.connect(1, -1) })
		f.pass(func(f *fakeNet) {
			f.yank(a) // fd 4 dies behind the server's back ...
			c = f.connect(2, -1)
			sendAll(c) // ... and its next accept reuses fd 4
		})
		f.pass(func(*fakeNet) { sendAll(b) })
		f.serve()
		if c.fd != a.fd {
			t.Fatalf("new connection got fd %d, want the yanked fd %d", c.fd, a.fd)
		}
		if c.responses(t) != 2 {
			t.Fatalf("connection accepted on a POLLNVAL fd got %d responses, want 2", c.responses(t))
		}
	})
}

// FuzzServe runs Serve over random scripts of connects, request chunks,
// half-closes, yanked descriptors, stalled readers and spurious revents.
// No input may panic Serve; every poll set must be ascending without
// duplicates and match the live connections; and every accepted client
// must end served in full or with its connection closed.
func FuzzServe(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 40, 1, 1, 40, 6, 0, 0, 3, 0, 1, 6, 1, 2, 90})
	f.Add([]byte{0, 70, 1, 5, 200, 4, 5, 0, 6, 1, 5, 200, 4, 5, 3, 6, 2, 5, 6})
	f.Add([]byte{0, 2, 3, 0, 0, 1, 0, 15, 0, 1, 6, 5, 1, 0x18, 1, 1, 60, 6})
	f.Fuzz(runServeScript)
}

// runServeScript decodes one FuzzServe input as three-byte operations
// (opcode, a, b); opcode 6 ends a pass.
func runServeScript(t *testing.T, script []byte) {
	script = script[:min(len(script), fuzzMaxScript)]
	fn := newFakeNet(t)
	ops := []func(*fakeNet){}
	arg := func(i int) int {
		if i < len(script) {
			return int(script[i])
		}
		return 0
	}
	// open picks the k-th client with an open fd, if any.
	open := func(f *fakeNet, k int) *fakeClient {
		var live []*fakeClient
		for _, c := range f.clients {
			if c.fd >= 0 && f.fds[c.fd] == c {
				live = append(live, c)
			}
		}
		if len(live) == 0 {
			return nil
		}
		return live[k%len(live)]
	}
	for i := 0; i < len(script); i += 3 {
		a, b := arg(i+1), arg(i+2)
		switch script[i] % 7 {
		case 0: // connect a%80+1 clients with b%4+1 requests each
			ops = append(ops, func(f *fakeNet) {
				for j := 0; j <= a%80 && len(f.clients) < fuzzMaxClients; j++ {
					f.connect(b%4+1, (b>>2)%6)
				}
			})
		case 1: // a client sends a request chunk
			ops = append(ops, func(f *fakeNet) {
				if len(f.clients) > 0 {
					f.clients[a%len(f.clients)].send(b%64 + 1)
				}
			})
		case 2: // a client half-closes
			ops = append(ops, func(f *fakeNet) {
				if len(f.clients) > 0 {
					f.clients[a%len(f.clients)].hup = true
				}
			})
		case 3: // a connection's fd is closed behind the server's back
			ops = append(ops, func(f *fakeNet) {
				if c := open(f, a); c != nil {
					f.yank(c)
				}
			})
		case 4: // a connection's reader stalls after b%64 bytes
			ops = append(ops, func(f *fakeNet) {
				if c := open(f, a); c != nil {
					c.wcap = b % 64
				}
			})
		case 5: // spurious revents on one poll record
			ops = append(ops, func(f *fakeNet) {
				f.extra[a%8+1] |= uint32(b) & (abi.POLLIN | abi.POLLOUT | abi.POLLERR | abi.POLLHUP)
			})
		case 6: // end of pass
			fn.pass(ops...)
			ops = nil
		}
	}
	fn.pass(ops...)
	fn.serve()
}

// TestServeSharedResponse: a handler may return one shared response to
// every request. Serving it to a client that asks to close adds
// Connection: close to that client's bytes only: the response stays
// unmodified, and a keep-alive client served next gets it without the
// header and keeps its connection.
func TestServeSharedResponse(t *testing.T) {
	shared := &Response{Status: 200, Body: []byte("shared")}
	f := newFakeNet(t)
	var a, b *fakeClient
	f.pass(func(f *fakeNet) { a = f.connect(1, 0) })
	f.pass(func(*fakeNet) { sendAll(a) })
	f.pass(func(f *fakeNet) { b = f.connect(2, -1) })
	f.pass(func(*fakeNet) { sendAll(b) })
	if err := Serve(f, 80, func(*Request) *Response { return shared }); err != abi.OK {
		t.Fatalf("Serve: %v", err)
	}
	if shared.Header != nil || string(shared.Body) != "shared" {
		t.Fatalf("shared response modified: %+v", shared)
	}
	check := func(c *fakeClient, n int, conn string, closed bool) {
		t.Helper()
		buf := c.got
		for i := 0; i < n; i++ {
			resp, rest, err := ParseBufferedResponse(buf, false)
			if err != abi.OK || resp.Status != 200 || string(resp.Body) != "shared" || resp.Header["Connection"] != conn {
				t.Fatalf("client %d response %d: %+v (%v), want 200 %q with Connection %q", c.id, i, resp, err, "shared", conn)
			}
			buf = rest
		}
		if len(buf) != 0 || c.closed != closed {
			t.Fatalf("client %d: %q left over, closed %v; want nothing and closed %v", c.id, buf, c.closed, closed)
		}
	}
	check(a, 1, "close", true)
	check(b, 2, "", false)
}

// TestServeRecycledConnCarriesNothing: a gone connection's record is
// reused by the next accept, and nothing of the old connection reaches
// the new one. The first client leaves a half-sent request buffered and
// a response half-written behind a stalled reader when its descriptor
// dies; the client accepted next on the same fd gets exactly the answers
// to its own requests.
func TestServeRecycledConnCarriesNothing(t *testing.T) {
	f := newFakeNet(t)
	var a, b *fakeClient
	f.pass(func(f *fakeNet) { a = f.connect(2, -1) })
	f.pass(func(*fakeNet) {
		a.wcap = 10
		a.send(a.reqs[0] + 5)
	})
	f.pass(func(f *fakeNet) { f.yank(a) })
	f.pass(func(f *fakeNet) {
		b = f.connect(3, -1)
		sendAll(b)
	})
	f.serve()
	if b.fd != a.fd {
		t.Fatalf("second client got fd %d, want the first one's %d", b.fd, a.fd)
	}
	if len(a.got) != 10 {
		t.Fatalf("first client got %q, want its reader's 10 bytes", a.got)
	}
	if n := b.responses(t); n != 3 || len(b.got) == 0 {
		t.Fatalf("second client: %d responses, want 3 (got %q)", n, b.got)
	}
}
