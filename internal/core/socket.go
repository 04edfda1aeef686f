package core

import (
	"fmt"

	"repro/internal/abi"
)

// This file implements §3.5: a subset of the BSD/POSIX socket API with
// SOCK_STREAM (TCP) sockets connecting Browsix processes — and the
// kernel-side client endpoints that let the web application itself talk
// HTTP to in-Browsix servers (§4.1's XMLHttpRequest-like interface).
//
// A connection is a pair of pipes (one per direction): sockets are
// "sequenced, reliable, bi-directional streams".

// sockState tracks a socket descriptor's lifecycle.
type sockState int

const (
	sockFresh sockState = iota
	sockBound
	sockListening
	sockConnected
	sockClosed
)

// Socket is a kernel socket object.
type Socket struct {
	k     *Kernel
	state sockState
	port  int

	// Listening state.
	backlog       []*Socket // established, not yet accepted
	backlogMax    int
	acceptWaiters []func(*Socket, abi.Errno)

	// Connected state.
	in  *Pipe // bytes we read
	out *Pipe // bytes we write
}

func (s *Socket) String() string { return fmt.Sprintf("socket:[port=%d state=%d]", s.port, s.state) }

// Read/Write on a connected socket are pipe operations. A descriptor
// opened (or fcntl'd) with O_NONBLOCK never parks: an empty receive
// buffer reads EAGAIN, a full send buffer writes what fits or EAGAIN —
// the readiness edge SYS_poll reports.
func (s *Socket) Read(d *Desc, n int, cb func([]byte, abi.Errno)) { s.readCall(d, nil, n, cb) }

// readCall is Read for system call c (callReader).
func (s *Socket) readCall(d *Desc, call *callCont, n int, cb func([]byte, abi.Errno)) {
	if s.state != sockConnected {
		cb(nil, abi.ENOTCONN)
		return
	}
	if d != nil && d.flags&abi.O_NONBLOCK != 0 && s.in.size == 0 && !s.in.writeClosed {
		cb(nil, abi.EAGAIN)
		return
	}
	s.in.read(call, n, cb)
}

func (s *Socket) Write(d *Desc, data []byte, cb func(int, abi.Errno)) {
	s.send(d, pipeWrite{cur: data, cb: cb})
}

// Writev takes kernel-owned buffers into the send pipe, as a pipe end
// does, so a process's write reaches the peer without a second copy.
func (s *Socket) Writev(d *Desc, bufs [][]byte, cb func(int, abi.Errno)) {
	s.send(d, movedWrite(bufs, nil, cb))
}

// moveIn is Writev of one kernel-owned buffer.
func (s *Socket) moveIn(d *Desc, buf []byte, cb func(int, abi.Errno)) {
	s.send(d, pipeWrite{cur: buf, owned: true, cb: cb})
}

func (s *Socket) send(d *Desc, w pipeWrite) {
	if s.state != sockConnected {
		w.cb(0, abi.ENOTCONN)
		return
	}
	if d != nil && d.flags&abi.O_NONBLOCK != 0 {
		n, err := s.out.writeNB(w)
		w.cb(n, err)
		return
	}
	s.out.enqueueWrite(w)
}

func (s *Socket) Pread(off int64, n int, cb func([]byte, abi.Errno)) { cb(nil, abi.ESPIPE) }
func (s *Socket) Pwrite(off int64, b []byte, cb func(int, abi.Errno)) {
	cb(0, abi.ESPIPE)
}
func (s *Socket) Seek(d *Desc, off int64, w int, cb func(int64, abi.Errno)) {
	cb(0, abi.ESPIPE)
}
func (s *Socket) Stat(cb func(abi.Stat, abi.Errno)) {
	cb(abi.Stat{Mode: abi.S_IFSOCK | 0o600, Nlink: 1}, abi.OK)
}
func (s *Socket) Getdents(d *Desc, cb func([]abi.Dirent, abi.Errno)) { cb(nil, abi.ENOTDIR) }
func (s *Socket) Truncate(sz int64, cb func(abi.Errno))              { cb(abi.EINVAL) }

// Close tears the socket down: a listener stops accepting (pending
// connects are refused), a connected socket half-closes its peer.
func (s *Socket) Close(cb func(abi.Errno)) {
	switch s.state {
	case sockListening:
		delete(s.k.ports, s.port)
		for _, w := range s.acceptWaiters {
			w(nil, abi.EINVAL)
		}
		s.acceptWaiters = nil
		for _, c := range s.backlog {
			c.in.closeRead()
			c.out.closeWrite()
		}
		s.backlog = nil
	case sockConnected:
		s.in.closeRead()
		s.out.closeWrite()
	case sockBound:
		// A bound-but-not-listening port is released.
		if s.k.ports[s.port] == s {
			delete(s.k.ports, s.port)
		}
	}
	s.state = sockClosed
	s.k.pollKick()
	cb(abi.OK)
}

// ---------------------------------------------------------------------------
// Kernel socket-subsystem operations.
// ---------------------------------------------------------------------------

// NewSocket creates an unbound stream socket.
func (k *Kernel) NewSocket() *Socket { return &Socket{k: k, state: sockFresh} }

// BindSocket binds a socket to a local port; port 0 picks an ephemeral one.
func (k *Kernel) BindSocket(s *Socket, port int) abi.Errno {
	if s.state != sockFresh {
		return abi.EINVAL
	}
	if port == 0 {
		port = k.nextEphemeral
		for k.ports[port] != nil {
			port++
		}
		k.nextEphemeral = port + 1
	}
	if k.ports[port] != nil {
		return abi.EADDRINUSE
	}
	k.ports[port] = s
	s.port = port
	s.state = sockBound
	return abi.OK
}

// ListenSocket moves a bound socket to listening and fires any
// port-listen notifications registered by the web application (§4.1:
// "socket notifications let applications register a callback to be
// invoked when a process has started listening on a particular port").
func (k *Kernel) ListenSocket(s *Socket, backlog int) abi.Errno {
	if s.state != sockBound {
		return abi.EINVAL
	}
	if backlog <= 0 {
		backlog = 8
	}
	s.backlogMax = backlog
	s.state = sockListening
	if ws := k.portWatchers[s.port]; len(ws) > 0 {
		delete(k.portWatchers, s.port)
		for _, w := range ws {
			w(s.port)
		}
	}
	return abi.OK
}

// AcceptSocket dequeues an established connection, or parks the
// continuation until one arrives. With nonblock set (the listener
// descriptor carries O_NONBLOCK, or the accept itself asked for it) an
// empty backlog answers EAGAIN instead of parking — the event-loop
// server drains the backlog to EAGAIN after poll reports the listener
// readable.
func (k *Kernel) AcceptSocket(s *Socket, nonblock bool, cb func(*Socket, abi.Errno)) {
	if s.state != sockListening {
		cb(nil, abi.EINVAL)
		return
	}
	if len(s.backlog) > 0 {
		c := s.backlog[0]
		s.backlog = s.backlog[1:]
		cb(c, abi.OK)
		return
	}
	if nonblock {
		cb(nil, abi.EAGAIN)
		return
	}
	s.acceptWaiters = append(s.acceptWaiters, cb)
}

// ConnectSocket connects a fresh socket to a listening port. Like TCP, the
// three-way handshake completes as soon as the listener queues the
// connection; accept() happens later.
func (k *Kernel) ConnectSocket(s *Socket, port int, cb func(abi.Errno)) {
	if s.state == sockConnected {
		cb(abi.EISCONN)
		return
	}
	if s.state != sockFresh && s.state != sockBound {
		cb(abi.EINVAL)
		return
	}
	l := k.ports[port]
	if l == nil || l.state != sockListening {
		cb(abi.ECONNREFUSED)
		return
	}
	if len(l.backlog) >= l.backlogMax && len(l.acceptWaiters) == 0 {
		cb(abi.ECONNREFUSED)
		return
	}
	a, b := NewPipe(), NewPipe()
	a.onState, b.onState = k.kick, k.kick
	s.in, s.out = a, b
	s.state = sockConnected
	peer := &Socket{k: k, state: sockConnected, port: port, in: b, out: a}
	if len(l.acceptWaiters) > 0 {
		w := l.acceptWaiters[0]
		l.acceptWaiters = l.acceptWaiters[1:]
		cb(abi.OK)
		w(peer, abi.OK)
		return
	}
	l.backlog = append(l.backlog, peer)
	k.pollKick()
	cb(abi.OK)
}

// OnPortListen registers a callback fired when some process starts
// listening on port. If the port is already listening the callback fires
// immediately. This is the Browsix socket-notification API that saves web
// applications from polling.
func (k *Kernel) OnPortListen(port int, cb func(port int)) {
	if l := k.ports[port]; l != nil && l.state == sockListening {
		cb(port)
		return
	}
	k.portWatchers[port] = append(k.portWatchers[port], cb)
}

// ---------------------------------------------------------------------------
// Kernel-side connections (the web application's XHR path).
// ---------------------------------------------------------------------------

// KernelConn is a kernel-held endpoint of a connection to an in-Browsix
// socket server. The web-application-facing XHR API is built on it.
type KernelConn struct {
	sock *Socket
}

// Connect opens a kernel-side connection to a listening Browsix port.
func (k *Kernel) Connect(port int, cb func(*KernelConn, abi.Errno)) {
	s := k.NewSocket()
	k.ConnectSocket(s, port, func(err abi.Errno) {
		if err != abi.OK {
			cb(nil, err)
			return
		}
		cb(&KernelConn{sock: s}, abi.OK)
	})
}

// Read reads up to n bytes (empty slice at EOF).
func (c *KernelConn) Read(n int, cb func([]byte, abi.Errno)) { c.sock.in.read(nil, n, cb) }

// Write writes data.
func (c *KernelConn) Write(data []byte, cb func(int, abi.Errno)) { c.sock.out.write(data, cb) }

// Close closes the connection.
func (c *KernelConn) Close() { c.sock.Close(func(abi.Errno) {}) }
