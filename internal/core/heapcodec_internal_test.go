package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
)

// Heap layout the codec tests stage their arguments in (all well below
// the rings at the top of a ringWorld heap).
const (
	hcPath  = 1024  // "/f"
	hcIovec = 2048  // one Iovec naming hcOut
	hcPoll  = 3072  // one Pollfd for hcFd
	hcInts  = 4096  // one int32
	hcOut   = 8192  // 64-byte result buffer
	hcRec   = 16384 // result record
	hcFd    = 3     // an open descriptor on /f
)

// run executes fn inside a simulator event and runs the world until it
// returns.
func (w *ringWorld) run(t testing.TB, fn func()) {
	done := false
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() { fn(); done = true })
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatalf("event never completed")
	}
}

// newCodecWorld is a ringWorld with /f ("hello") open as hcFd and the
// argument layout above staged in its heap.
func newCodecWorld(t testing.TB) *ringWorld {
	w := newRingWorld(t)
	w.k.Loader = func([]byte) (func(*browser.Worker), abi.Errno) { return nil, abi.ENOEXEC }
	w.task.sigActions, w.task.children = map[int]sigAction{}, map[int]*Task{}
	w.fsys.WriteFile("/f", []byte("hello"), 0o644, func(abi.Errno) {})
	w.run(t, func() {
		w.k.doOpen(w.task, "/f", abi.O_RDWR, 0, func(fd int, err abi.Errno) {
			if err != abi.OK {
				t.Fatalf("open /f: %v", err)
			}
			w.k.doDup2(w.task, fd, hcFd)
		})
	})
	heap := w.task.heap.Bytes()
	copy(heap[hcPath:], "/f")
	abi.PackIovecs(heap[hcIovec:], []abi.Iovec{{Ptr: hcOut, Len: 16}})
	abi.PackPollfds(heap[hcPoll:], []abi.Pollfd{{Fd: hcFd, Events: abi.POLLIN}})
	binary.LittleEndian.PutUint32(heap[hcInts:], 0)
	return w
}

// validWords builds a frame for row whose every argument is well formed,
// returning the words and, per argument, the index of its pointer word
// (-1 for arguments without one).
func validWords(row *abi.Syscall) (words []int64, ptrAt []int) {
	for _, shape := range row.Args {
		ptrAt = append(ptrAt, -1)
		switch shape {
		case abi.ArgInt:
			words = append(words, 0)
		case abi.ArgFd:
			words = append(words, hcFd)
		case abi.ArgStr, abi.ArgBytes, abi.ArgStrs:
			ptrAt[len(ptrAt)-1] = len(words)
			words = append(words, hcPath, 2)
		case abi.ArgInts:
			ptrAt[len(ptrAt)-1] = len(words)
			words = append(words, hcInts, 1)
		case abi.ArgBufs, abi.ArgLens:
			ptrAt[len(ptrAt)-1] = len(words)
			words = append(words, hcIovec, 1)
		case abi.ArgPollfds:
			ptrAt[len(ptrAt)-1] = len(words)
			words = append(words, hcPoll, 1)
		case abi.ArgOut, abi.ArgOutBuf:
			ptrAt[len(ptrAt)-1] = len(words)
			words = append(words, hcOut, 64)
		case abi.ArgOutRec:
			ptrAt[len(ptrAt)-1] = len(words)
			words = append(words, hcRec)
		}
	}
	return words, ptrAt
}

type badFrame struct {
	name  string
	trap  int
	words []int64
}

// badPointerFrames lists, for every heap-addressed trap, frames whose
// only defect is one guest pointer outside the heap.
func badPointerFrames(hlen int64) []badFrame {
	bad := []int64{1 << 40, -8, hlen - 1, (1 << 63) - 1}
	var out []badFrame
	add := func(trap int, words []int64, at int, what string) {
		for _, p := range bad {
			w := append([]int64(nil), words...)
			w[at] = p
			out = append(out, badFrame{fmt.Sprintf("%s/%s=%#x", abi.SyscallName(trap), what, p), trap, w})
		}
	}
	for trap := 1; trap < abi.SYS_max; trap++ {
		row := &abi.Syscalls[trap]
		if row.Transport != abi.Both {
			continue
		}
		words, ptrAt := validWords(row)
		for i, at := range ptrAt {
			if at >= 0 {
				add(trap, words, at, fmt.Sprintf("arg%d", i))
			}
		}
	}
	return out
}

// worldState is what a failed call must leave untouched.
func worldState(t testing.TB, w *ringWorld) string {
	var ls []string
	var body []byte
	w.run(t, func() {
		w.fsys.Readdir("/", func(ents []abi.Dirent, err abi.Errno) {
			for _, e := range ents {
				ls = append(ls, e.Name)
			}
		})
		w.fsys.ReadFile("/f", func(b []byte, err abi.Errno) { body = b })
	})
	return fmt.Sprintf("fds=%d cwd=%s ls=%v /f=%q",
		len(w.task.Fds()), w.task.cwd, ls, body)
}

// TestHeapCodecBadPointerEFAULT: a ring frame naming any guest range
// outside the heap fails with EFAULT, changes nothing, and the kernel
// goes on to serve the next frame of the same drain.
func TestHeapCodecBadPointerEFAULT(t *testing.T) {
	w := newCodecWorld(t)
	before := worldState(t, w)
	for _, f := range badPointerFrames(ringWorldHeap) {
		w.task.ring.req.PushCall(0, f.trap, f.words)
		w.task.ring.req.PushCall(1, abi.SYS_getpid, nil)
		w.drain(t)
		rets, errs := make([]int64, 2), make([]abi.Errno, 2)
		for n := 0; n < 3; n++ {
			seq, ret, errno, ok := w.task.ring.rep.PopReply()
			if !ok {
				if n != 2 {
					t.Fatalf("%s: %d replies, want 2", f.name, n)
				}
				break
			}
			rets[seq], errs[seq] = ret, errno
		}
		if rets[0] != -1 || errs[0] != abi.EFAULT {
			t.Errorf("%s: ret=%d err=%v, want -1 EFAULT", f.name, rets[0], errs[0])
		}
		if rets[1] != int64(w.task.Pid) || errs[1] != abi.OK {
			t.Errorf("%s: next frame ret=%d err=%v, want the pid", f.name, rets[1], errs[1])
		}
		if after := worldState(t, w); after != before {
			t.Fatalf("%s changed the world:\n  before %s\n  after  %s", f.name, before, after)
		}
	}
}

// TestSyscallTableComplete: every trap below SYS_max has a row with a
// name of its own and exactly one op in sysOps, the kernel's only
// dispatch table (the entry outside the table is empty). Only AsyncOnly
// rows, which the heap codec refuses, take a heap argument.
func TestSyscallTableComplete(t *testing.T) {
	if sysOps[0] != nil {
		t.Error("sysOps has an op for trap 0")
	}
	trapOf := map[string]int{}
	for trap := 1; trap < abi.SYS_max; trap++ {
		row := &abi.Syscalls[trap]
		if row.Name == "" {
			t.Errorf("trap %d has no row", trap)
			continue
		}
		if other, dup := trapOf[row.Name]; dup {
			t.Errorf("%s names traps %d and %d", row.Name, other, trap)
		}
		trapOf[row.Name] = trap
		if sysOps[trap] == nil {
			t.Errorf("%s has no op", row.Name)
		}
		if row.Transport != abi.AsyncOnly && slices.Contains(row.Args, abi.ArgHeap) {
			t.Errorf("%s: the heap codec would carry an ArgHeap", row.Name)
		}
	}
	for _, name := range []string{"fork", "personality", "snapcap"} {
		if trap := trapOf[name]; abi.Syscalls[trap].Transport != abi.AsyncOnly {
			t.Errorf("%s: want an AsyncOnly row", name)
		}
	}
}

// fuzzArena is where fuzzed pointer-tagged arguments land: a staged
// region holding paths, an iovec table and a pollfd record.
const fuzzArena = 1024

// fuzzFrames decodes fuzz input into call frames. Each argument takes a
// tag byte: a small integer, a pointer into the staged arena, eight raw
// bytes, or a small negative. Calls that would end the task, or park it
// forever, are remapped so every frame must be answered: exit and the
// pipe/socket constructors become getpid, kill targets no task, poll
// never waits, wait4 never blocks, and file sizes stay small.
func fuzzFrames(data []byte) []pendingCall {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var calls []pendingCall
	for len(data) > 0 && len(calls) < 16 {
		trap := int(next()) % (abi.SYS_max + 1)
		args := make([]int64, int(next())%9)
		for i := range args {
			tag := next()
			switch tag % 4 {
			case 0:
				args[i] = int64(tag >> 2)
			case 1:
				args[i] = fuzzArena + int64(tag>>2)*8
			case 2:
				var v uint64
				for j := 0; j < 8; j++ {
					v = v<<8 | uint64(next())
				}
				args[i] = int64(v)
			case 3:
				args[i] = -int64(tag>>2) - 1
			}
		}
		at := func(i int) *int64 {
			for len(args) <= i {
				args = append(args, 0)
			}
			return &args[i]
		}
		switch trap {
		case abi.SYS_exit, abi.SYS_pipe2, abi.SYS_socket:
			trap = abi.SYS_getpid
		case abi.SYS_kill:
			*at(0) = 1 << 20
		case abi.SYS_poll:
			*at(2) = 0
		case abi.SYS_wait4:
			*at(2) |= abi.WNOHANG
		case abi.SYS_ftruncate, abi.SYS_llseek:
			*at(1) %= 1 << 16
		case abi.SYS_pwrite, abi.SYS_pread:
			*at(3) %= 1 << 16
		}
		calls = append(calls, pendingCall{seq: uint32(len(calls)), trap: trap, args: args})
	}
	return calls
}

// FuzzDrainRing pushes random frames through one ring doorbell: the
// kernel must not panic, and must answer every frame exactly once.
func FuzzDrainRing(f *testing.F) {
	// A frame is trap, argument count, then one tag per argument (eight
	// more raw bytes after a raw tag).
	frame := func(trap, nargs int, tags ...byte) []byte { return append([]byte{byte(trap), byte(nargs)}, tags...) }
	ptr, small, raw := func(off byte) byte { return off<<2 | 1 }, func(v byte) byte { return v << 2 }, byte(2)
	const out, iov, pfd = 32, 4, 6 // arena slots, in 8-byte units
	f.Add(frame(abi.SYS_stat, 3, ptr(0), small(2), ptr(out)))
	f.Add(append(frame(abi.SYS_open, 4, ptr(0), small(2), small(0), small(0)), frame(abi.SYS_read, 3, small(hcFd), ptr(out), small(32))...))
	f.Add(frame(abi.SYS_readv, 3, small(hcFd), ptr(iov), small(1)))
	f.Add(frame(abi.SYS_writev, 3, small(hcFd), ptr(iov), small(1)))
	f.Add(frame(abi.SYS_poll, 3, ptr(pfd), small(1), small(0)))
	f.Add(frame(abi.SYS_spawn, 8, ptr(0), small(2), ptr(0), small(2), ptr(0), small(0), ptr(0), small(1)))
	f.Add(frame(abi.SYS_pread, 4, small(hcFd), ptr(out), small(32), small(1)))
	f.Add(frame(abi.SYS_getdents, 3, small(hcFd), ptr(out), small(63)))
	// The ring SYS_open with a 1<<40 path pointer that used to panic.
	f.Add(frame(abi.SYS_open, 4, raw, 0, 0, 1, 0, 0, 0, 0, 0, small(2), small(0), small(0)))
	f.Add(frame(abi.SYS_write, 3, small(hcFd), raw, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, small(8)))
	f.Fuzz(func(t *testing.T, data []byte) {
		calls := fuzzFrames(data)
		if len(calls) == 0 {
			return
		}
		w := newCodecWorld(t)
		heap := w.task.heap.Bytes()
		copy(heap[fuzzArena:], "/f\x00/d\x00")
		abi.PackIovecs(heap[fuzzArena+32:], []abi.Iovec{{Ptr: fuzzArena + 256, Len: 64}})
		abi.PackPollfds(heap[fuzzArena+48:], []abi.Pollfd{{Fd: hcFd, Events: abi.POLLIN | abi.POLLOUT}})
		for _, c := range calls {
			if !w.task.ring.req.PushCall(c.seq, c.trap, c.args) {
				t.Fatalf("request ring full")
			}
		}
		w.drain(t)
		w.sim.Run()
		seen := map[uint32]int{}
		for {
			seq, _, _, ok := w.task.ring.rep.PopReply()
			if !ok {
				break
			}
			seen[seq]++
		}
		for _, c := range calls {
			if seen[c.seq] != 1 {
				t.Fatalf("frame %d (%s %v) answered %d times", c.seq, abi.SyscallName(c.trap), c.args, seen[c.seq])
			}
		}
		if len(seen) != len(calls) {
			t.Fatalf("%d frames, replies for %d sequence numbers", len(calls), len(seen))
		}
	})
}
