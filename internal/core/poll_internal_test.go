package core

import (
	"testing"

	"repro/internal/abi"
)

// Socket-readiness and non-blocking semantics tests: the kernel half of
// the event-driven server (SYS_poll, O_NONBLOCK, accept batching). The
// ringWorld harness from batch_internal_test.go provides the kernel, a
// synthetic ring-registered task, and the doorbell drain.

// ringListener pushes socket/bind/listen through real ring frames and
// returns the listener fd.
func ringListener(t *testing.T, w *ringWorld, port, backlog int) int {
	r := w.task.ring.req
	if !r.PushCall(0, abi.SYS_socket, nil) {
		t.Fatal("push socket")
	}
	w.drain(t)
	_, ret, errno, ok := w.task.ring.rep.PopReply()
	if !ok || errno != abi.OK {
		t.Fatalf("socket: ok=%v errno=%v", ok, errno)
	}
	lfd := int(ret)
	r.PushCall(1, abi.SYS_bind, []int64{int64(lfd), int64(port)})
	r.PushCall(2, abi.SYS_listen, []int64{int64(lfd), int64(backlog)})
	w.drain(t)
	for i := 0; i < 2; i++ {
		_, _, errno, ok := w.task.ring.rep.PopReply()
		if !ok || errno != abi.OK {
			t.Fatalf("bind/listen reply %d: ok=%v errno=%v", i, ok, errno)
		}
	}
	return lfd
}

// connectClients opens n kernel-side connections to port, failing the
// test unless every handshake succeeds.
func connectClients(t *testing.T, w *ringWorld, port, n int) []*KernelConn {
	conns := make([]*KernelConn, 0, n)
	done := false
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() {
		for i := 0; i < n; i++ {
			w.k.Connect(port, func(c *KernelConn, err abi.Errno) {
				if err != abi.OK {
					t.Errorf("connect %d: %v", i, err)
					return
				}
				conns = append(conns, c)
			})
		}
		done = true
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatal("connects never ran")
	}
	return conns
}

// stagePollFrame packs one single-fd pollfd record at ptr and pushes a
// SYS_poll probe frame (timeout 0).
func stagePollFrame(t *testing.T, w *ringWorld, seq uint32, ptr int64, fd int, events uint32) {
	buf := make([]byte, abi.PollfdSize)
	abi.PackPollfds(buf, []abi.Pollfd{{Fd: int32(fd), Events: events}})
	copy(w.task.heap.Bytes()[ptr:], buf)
	if !w.task.ring.req.PushCall(seq, abi.SYS_poll, []int64{ptr, 1, 0}) {
		t.Fatalf("push poll frame %d", seq)
	}
}

// TestPollAcceptStormSingleNotify is the acceptance guard for batched
// readiness dispatch: a drained doorbell carrying poll probes AND a full
// backlog's worth of non-blocking accepts (plus over-asks that answer
// EAGAIN) completes in ONE batched pass with exactly one ring notify.
func TestPollAcceptStormSingleNotify(t *testing.T) {
	w := newRingWorld(t)
	const port = 9000
	lfd := ringListener(t, w, port, 16)
	conns := connectClients(t, w, port, 8)
	if len(conns) != 8 {
		t.Fatalf("connected %d clients, want 8", len(conns))
	}

	// The storm: 4 poll probes of the listener + 10 nonblock accepts
	// (8 succeed, 2 over-ask EAGAIN), all behind one doorbell.
	const polls, accepts = 4, 10
	pollPtrs := make([]int64, polls)
	seq := uint32(0)
	for i := 0; i < polls; i++ {
		pollPtrs[i] = int64(4096 + i*64)
		stagePollFrame(t, w, seq, pollPtrs[i], lfd, abi.POLLIN)
		seq++
	}
	for i := 0; i < accepts; i++ {
		if !w.task.ring.req.PushCall(seq, abi.SYS_accept, []int64{int64(lfd), int64(abi.O_NONBLOCK)}) {
			t.Fatalf("push accept frame %d", i)
		}
		seq++
	}

	before := w.k.RingNotifies.Load()
	w.drain(t)
	if got := w.k.RingNotifies.Load() - before; got != 1 {
		t.Fatalf("poll+accept storm produced %d notifies, want exactly 1", got)
	}

	gotAccepts, gotEAGAIN := 0, 0
	for {
		s, ret, errno, ok := w.task.ring.rep.PopReply()
		if !ok {
			break
		}
		switch {
		case s < polls: // poll probe
			if errno != abi.OK || ret != 1 {
				t.Fatalf("poll frame %d: ret=%d errno=%v", s, ret, errno)
			}
			got := abi.AppendPollfds(nil, w.task.heap.Bytes()[pollPtrs[s]:pollPtrs[s]+abi.PollfdSize], 1)
			if got[0].Revents&abi.POLLIN == 0 {
				t.Fatalf("poll frame %d: revents %#x, want POLLIN", s, got[0].Revents)
			}
		case errno == abi.OK:
			if ret < 0 {
				t.Fatalf("accept frame %d: fd %d", s, ret)
			}
			gotAccepts++
		case errno == abi.EAGAIN:
			gotEAGAIN++
		default:
			t.Fatalf("accept frame %d: errno %v", s, errno)
		}
	}
	if gotAccepts != 8 || gotEAGAIN != 2 {
		t.Fatalf("accepts=%d eagain=%d, want 8 and 2", gotAccepts, gotEAGAIN)
	}
}

// TestBacklogOverflowRefusal: connects beyond the listen backlog are
// refused while no accept is parked, and accepting frees a slot.
func TestBacklogOverflowRefusal(t *testing.T) {
	w := newRingWorld(t)
	const port = 9001
	ringListener(t, w, port, 4)

	results := make([]abi.Errno, 0, 6)
	done := false
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() {
		for i := 0; i < 5; i++ {
			w.k.Connect(port, func(_ *KernelConn, err abi.Errno) {
				results = append(results, err)
			})
		}
		// Accept one; the freed slot lets one more connect in.
		l := w.k.ports[port]
		w.k.AcceptSocket(l, true, func(c *Socket, err abi.Errno) {
			if err != abi.OK {
				t.Errorf("accept after overflow: %v", err)
			}
		})
		w.k.Connect(port, func(_ *KernelConn, err abi.Errno) {
			results = append(results, err)
		})
		done = true
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatal("never completed")
	}
	want := []abi.Errno{abi.OK, abi.OK, abi.OK, abi.OK, abi.ECONNREFUSED, abi.OK}
	if len(results) != len(want) {
		t.Fatalf("results %v", results)
	}
	for i, err := range results {
		if err != want[i] {
			t.Fatalf("connect %d: %v, want %v (all: %v)", i, err, want[i], results)
		}
	}
}

// TestCloseWhileAcceptParked: closing the listener fails the parked
// accept with EINVAL instead of leaking the waiter.
func TestCloseWhileAcceptParked(t *testing.T) {
	w := newRingWorld(t)
	const port = 9002
	ringListener(t, w, port, 4)

	var acceptErr abi.Errno = -1
	done := false
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() {
		l := w.k.ports[port]
		w.k.AcceptSocket(l, false, func(_ *Socket, err abi.Errno) { acceptErr = err })
		if acceptErr != -1 {
			t.Error("accept completed with empty backlog")
		}
		l.Close(func(abi.Errno) {})
		done = true
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatal("never completed")
	}
	if acceptErr != abi.EINVAL {
		t.Fatalf("parked accept got %v, want EINVAL", acceptErr)
	}
	// The port is released: a later connect is refused outright.
	var connErr abi.Errno = -1
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() {
		w.k.Connect(port, func(_ *KernelConn, err abi.Errno) { connErr = err })
	})
	w.sim.RunUntil(func() bool { return connErr != -1 })
	if connErr != abi.ECONNREFUSED {
		t.Fatalf("connect after close: %v, want ECONNREFUSED", connErr)
	}
}

// acceptPeer dequeues one established connection from port's listener.
func acceptPeer(t *testing.T, w *ringWorld, port int) *Socket {
	var got *Socket
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() {
		w.k.AcceptSocket(w.k.ports[port], true, func(c *Socket, err abi.Errno) {
			if err != abi.OK {
				t.Errorf("accept: %v", err)
				return
			}
			got = c
		})
	})
	if !w.sim.RunUntil(func() bool { return got != nil }) {
		t.Fatal("accept never completed")
	}
	return got
}

// TestHalfCloseReadDrain: after the peer closes, buffered bytes still
// drain before EOF, and poll reports POLLIN|POLLHUP throughout.
func TestHalfCloseReadDrain(t *testing.T) {
	w := newRingWorld(t)
	const port = 9003
	ringListener(t, w, port, 4)
	conns := connectClients(t, w, port, 1)
	srv := acceptPeer(t, w, port)
	d := NewDesc(srv, abi.O_RDWR, "socket:conn")
	fd := w.task.installFd(d)

	var steps []string
	done := false
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() {
		conns[0].Write([]byte("tail-bytes"), func(n int, err abi.Errno) {
			if err != abi.OK || n != 10 {
				t.Errorf("client write: n=%d err=%v", n, err)
			}
		})
		conns[0].Close()

		fds := []abi.Pollfd{{Fd: int32(fd), Events: abi.POLLIN}}
		if n := pollScan(w.task, fds); n != 1 {
			t.Errorf("pollScan = %d", n)
		}
		if fds[0].Revents&abi.POLLIN == 0 || fds[0].Revents&abi.POLLHUP == 0 {
			t.Errorf("revents before drain: %#x, want POLLIN|POLLHUP", fds[0].Revents)
		}

		srv.Read(d, 64, func(b []byte, err abi.Errno) {
			steps = append(steps, "read:"+string(b))
			// Drained: readiness is still POLLIN (EOF readable) + HUP.
			fds[0].Revents = 0
			pollScan(w.task, fds)
			if fds[0].Revents&(abi.POLLIN|abi.POLLHUP) != abi.POLLIN|abi.POLLHUP {
				t.Errorf("revents after drain: %#x", fds[0].Revents)
			}
			srv.Read(d, 64, func(b []byte, err abi.Errno) {
				if err != abi.OK || len(b) != 0 {
					t.Errorf("EOF read: len=%d err=%v", len(b), err)
				}
				steps = append(steps, "eof")
				done = true
			})
		})
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatal("never completed")
	}
	if len(steps) != 2 || steps[0] != "read:tail-bytes" || steps[1] != "eof" {
		t.Fatalf("steps: %v", steps)
	}
}

// TestNonblockEAGAIN: non-blocking reads on an empty socket and writes
// into a full send buffer answer EAGAIN (after a short write takes what
// fits) instead of parking.
func TestNonblockEAGAIN(t *testing.T) {
	w := newRingWorld(t)
	const port = 9004
	ringListener(t, w, port, 4)
	conns := connectClients(t, w, port, 1)
	srv := acceptPeer(t, w, port)
	nb := NewDesc(srv, abi.O_RDWR|abi.O_NONBLOCK, "socket:conn")

	done := false
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() {
		srv.Read(nb, 64, func(b []byte, err abi.Errno) {
			if err != abi.EAGAIN {
				t.Errorf("empty nonblock read: err=%v", err)
			}
		})
		// Fill the send pipe: the first oversized write is short, the
		// next answers EAGAIN.
		srv.Write(nb, make([]byte, PipeCap+1), func(n int, err abi.Errno) {
			if err != abi.OK || n != PipeCap {
				t.Errorf("filling write: n=%d err=%v", n, err)
			}
		})
		srv.Write(nb, []byte("x"), func(n int, err abi.Errno) {
			if err != abi.EAGAIN || n != 0 {
				t.Errorf("full nonblock write: n=%d err=%v", n, err)
			}
		})
		// POLLOUT must be absent while full, POLLIN absent while empty.
		fds := []abi.Pollfd{{Fd: int32(w.task.installFd(nb)), Events: abi.POLLIN | abi.POLLOUT}}
		pollScan(w.task, fds)
		if fds[0].Revents != 0 {
			t.Errorf("revents on stalled conn: %#x, want 0", fds[0].Revents)
		}
		// The client draining its side restores POLLOUT.
		conns[0].Read(PipeCap, func(b []byte, err abi.Errno) {
			if err != abi.OK || len(b) != PipeCap {
				t.Errorf("client drain: len=%d err=%v", len(b), err)
			}
			fds[0].Revents = 0
			pollScan(w.task, fds)
			if fds[0].Revents&abi.POLLOUT == 0 {
				t.Errorf("revents after drain: %#x, want POLLOUT", fds[0].Revents)
			}
			done = true
		})
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatal("never completed")
	}
}

// TestPollParkAndKick: a parked poll (infinite timeout) wakes when data
// arrives, and a parked poll with a timeout completes with zero ready
// fds at the virtual deadline.
func TestPollParkAndKick(t *testing.T) {
	w := newRingWorld(t)
	const port = 9005
	ringListener(t, w, port, 4)
	conns := connectClients(t, w, port, 1)
	srv := acceptPeer(t, w, port)
	fd := w.task.installFd(NewDesc(srv, abi.O_RDWR, "socket:conn"))

	var wokeN int
	var wokeAt int64
	done := false
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() {
		fds := []abi.Pollfd{{Fd: int32(fd), Events: abi.POLLIN}}
		w.k.doPoll(w.task, fds, -1, func(n int, err abi.Errno) {
			wokeN = n
			if err != abi.OK || fds[0].Revents&abi.POLLIN == 0 {
				t.Errorf("poll wake: n=%d err=%v revents=%#x", n, err, fds[0].Revents)
			}
		})
		if wokeN != 0 {
			t.Error("poll completed with no data")
		}
		if len(w.k.pollParked) != 1 {
			t.Errorf("pollParked = %d, want 1", len(w.k.pollParked))
		}
		conns[0].Write([]byte("wake"), func(int, abi.Errno) {})
		if wokeN != 1 {
			t.Errorf("parked poll not kicked by peer write (n=%d)", wokeN)
		}

		// Timed poll on a now-drained descriptor: fires at the deadline
		// with zero ready.
		srv.Read(nil, 64, func([]byte, abi.Errno) {})
		start := w.sim.Now()
		tfds := []abi.Pollfd{{Fd: int32(fd), Events: abi.POLLIN}}
		w.k.doPoll(w.task, tfds, 5_000_000, func(n int, err abi.Errno) {
			if n != 0 || err != abi.OK {
				t.Errorf("timeout poll: n=%d err=%v", n, err)
			}
			wokeAt = w.sim.Now() - start
			done = true
		})
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatal("timed poll never fired")
	}
	if wokeAt < 5_000_000 {
		t.Fatalf("timed poll fired after %dns, want >= 5ms", wokeAt)
	}
	if len(w.k.pollParked) != 0 {
		t.Fatalf("pollParked = %d after completion, want 0", len(w.k.pollParked))
	}
}
