package core

import "repro/internal/abi"

// This file implements SYS_poll: level-triggered readiness over socket
// and pipe descriptors, the multiplexing primitive the event-driven
// HTTP server (internal/httpx) is built on. Readiness is evaluated
// against kernel state directly — a listener is readable when its
// backlog is non-empty, a connection when its receive pipe holds bytes
// or EOF, writable while its send pipe has space — and parked pollers
// are re-scanned whenever any of those facts can change (pipe pumps,
// backlog pushes, closes), which the pipes announce through their
// onState hook and the socket code by calling pollKick directly.

// pollWaiter is one parked SYS_poll: the querying task, its staged
// Pollfd set (revents filled in place on completion), and the
// continuation that writes results back and replies. An untimed waiter
// goes back to the kernel's free list once it completes or is dropped;
// a timed one stays with its timer, which reads done after the fact.
type pollWaiter struct {
	t     *Task
	fds   []abi.Pollfd
	done  bool
	timed bool
	cb    func(n int, err abi.Errno)
}

// pollReadiness computes the full readiness bitmap for one descriptor.
// Regular files and directories are always ready both ways (as in
// poll(2)); the interesting cases are sockets and pipe ends.
func pollReadiness(d *Desc) uint32 {
	var r uint32
	switch f := d.file.(type) {
	case *Socket:
		switch f.state {
		case sockListening:
			if len(f.backlog) > 0 {
				r |= abi.POLLIN
			}
		case sockConnected:
			if f.in.size > 0 || f.in.writeClosed {
				r |= abi.POLLIN
			}
			if f.in.writeClosed {
				r |= abi.POLLHUP
			}
			if f.out.readClosed {
				r |= abi.POLLERR
			} else if f.out.size < PipeCap && f.out.writeWaiters.len() == 0 {
				r |= abi.POLLOUT
			}
		case sockClosed:
			r |= abi.POLLHUP
		}
	case *pipeEnd:
		if f.reader {
			if f.p.size > 0 || f.p.writeClosed {
				r |= abi.POLLIN
			}
			if f.p.writeClosed {
				r |= abi.POLLHUP
			}
		} else {
			if f.p.readClosed {
				r |= abi.POLLERR
			} else if f.p.size < PipeCap && f.p.writeWaiters.len() == 0 {
				r |= abi.POLLOUT
			}
		}
	default:
		r |= abi.POLLIN | abi.POLLOUT
	}
	return r
}

// pollScan fills revents for every record and returns the ready count.
// POLLERR/POLLHUP/POLLNVAL report regardless of the requested events.
func pollScan(t *Task, fds []abi.Pollfd) int {
	ready := 0
	for i := range fds {
		fds[i].Revents = 0
		d, err := t.lookFd(int(fds[i].Fd))
		if err != abi.OK {
			fds[i].Revents = abi.POLLNVAL
			ready++
			continue
		}
		r := pollReadiness(d) & (fds[i].Events | abi.POLLERR | abi.POLLHUP | abi.POLLNVAL)
		if r != 0 {
			fds[i].Revents = r
			ready++
		}
	}
	return ready
}

// doPoll evaluates readiness now and either answers immediately (any fd
// ready, or a zero timeout) or parks until a kick or the virtual-time
// timeout. timeoutNs < 0 blocks indefinitely; 0 is a pure status probe;
// > 0 arms a timer that completes the poll with zero ready fds.
func (k *Kernel) doPoll(t *Task, fds []abi.Pollfd, timeoutNs int64, cb func(n int, err abi.Errno)) {
	if n := pollScan(t, fds); n > 0 || timeoutNs == 0 {
		cb(n, abi.OK)
		return
	}
	w := k.pollFree.Take()
	if w == nil {
		w = &pollWaiter{}
	}
	*w = pollWaiter{t: t, fds: fds, cb: cb, timed: timeoutNs > 0}
	k.pollParked = append(k.pollParked, w)
	if timeoutNs > 0 {
		k.Sys.Main.SetTimeout(timeoutNs, func() {
			if w.done {
				return
			}
			w.done = true
			k.reapPollWaiter(w)
			for i := range w.fds {
				w.fds[i].Revents = 0
			}
			w.cb(0, abi.OK)
		})
	}
}

// pollKick re-scans every parked poller against current kernel state,
// completing those with something to report. It is level-triggered and
// idempotent: redundant kicks cost one slice check when nothing is
// parked. Completions can re-enter (the woken server issues reads that
// move pipe state inline), so re-entrant kicks coalesce into another
// pass of the outer loop instead of recursing.
func (k *Kernel) pollKick() {
	if k.pollKicking {
		k.pollAgain = true
		return
	}
	if len(k.pollParked) == 0 {
		return
	}
	k.pollKicking = true
	for {
		k.pollAgain = false
		rem := k.pollParked[:0]
		for _, w := range k.pollParked {
			if w.done {
				continue
			}
			if n := pollScan(w.t, w.fds); n > 0 {
				w.done = true
				w.cb(n, abi.OK)
				k.freePollWaiter(w)
				continue
			}
			rem = append(rem, w)
		}
		// Clear the dropped tail so completed waiters don't linger
		// reachable behind len(rem).
		tail := k.pollParked[len(rem):]
		for i := range tail {
			tail[i] = nil
		}
		k.pollParked = rem
		if !k.pollAgain {
			break
		}
	}
	k.pollKicking = false
}

// reapPollWaiter unlinks one completed waiter so timed-out polls don't
// linger in the parked set until the next kick happens to scan it.
func (k *Kernel) reapPollWaiter(w *pollWaiter) {
	for i, pw := range k.pollParked {
		if pw == w {
			last := len(k.pollParked) - 1
			copy(k.pollParked[i:], k.pollParked[i+1:])
			k.pollParked[last] = nil
			k.pollParked = k.pollParked[:last]
			return
		}
	}
}

// dropPollWaiters discards parked polls belonging to an exiting task —
// there is no runtime left to deliver a completion to.
func (k *Kernel) dropPollWaiters(t *Task) {
	rem := k.pollParked[:0]
	for _, w := range k.pollParked {
		if w.t == t {
			w.done = true
			k.freePollWaiter(w)
			continue
		}
		rem = append(rem, w)
	}
	tail := k.pollParked[len(rem):]
	for i := range tail {
		tail[i] = nil
	}
	k.pollParked = rem
}

// freePollWaiter keeps a finished untimed waiter for the next poll that
// parks. Its parked-set slot may still point at it until the caller's
// pass drops the slot, which it does without reading the waiter again.
func (k *Kernel) freePollWaiter(w *pollWaiter) {
	if w.timed {
		return
	}
	*w = pollWaiter{}
	k.pollFree.Put(w)
}
