package abi

import (
	"reflect"
	"slices"
	"testing"
)

// The reference clones: the bodies CallFrame.CloneValue and
// ReplyFrame.CloneValue had when frames were copied whole on every
// post, kept (as functions) so a moved frame can be checked against the
// copy it replaces. refCloneCall moves a poll call's Pollfds, which
// belong to the call, zeroing their revents in place; refCloneReply
// moves a reply's Data and Pollfds, which belong to the result. Both
// copy everything else as before.

func refCloneCall(f *CallFrame) (any, int64) {
	row := rowOf(f.Trap)
	c := &CallFrame{ID: f.ID, Trap: f.Trap}
	a, ca := &f.Args, &c.Args
	var n int64 // the args array
	ni, ns, nl := 0, 0, 0
	for _, shape := range row.Args {
		switch shape {
		case ArgInt, ArgFd, ArgOpt:
			if shape != ArgOpt || a.Int[ni] != 0 {
				ca.Int[ni] = a.Int[ni]
				n += numSize + 8
			}
			ni++
		case ArgZero:
			n += numSize + 8
		case ArgOut:
			ca.Cap = a.Cap
			n += numSize + 8
		case ArgStr:
			ca.Str[ns] = a.Str[ns]
			n += int64(len(a.Str[ns])) + 8
			ns++
		case ArgStrs:
			ca.Strs[nl] = append(make([]string, 0, len(a.Strs[nl])), a.Strs[nl]...)
			for _, s := range a.Strs[nl] {
				n += int64(len(s)) + 8
			}
			n += 8
			nl++
		case ArgBytes:
			ca.Bytes = append(make([]byte, 0, len(a.Bytes)), a.Bytes...)
			n += int64(len(a.Bytes)) + 8
		case ArgInts, ArgLens:
			ca.Ints = append([]int(nil), a.Ints...)
			n += int64(len(a.Ints))*(numSize+8) + 8
		case ArgHeap:
			ca.Heap = a.Heap
			n += 8
		case ArgBufs:
			var m int64
			ca.Bufs, m = cloneBufs(a.Bufs, false)
			n += m + 8
		case ArgPollfds:
			for i := range a.Pollfds {
				a.Pollfds[i].Revents = 0
			}
			ca.Pollfds = a.Pollfds
			n += int64(len(a.Pollfds))*2*(numSize+8) + 8
		}
	}
	return c, prop("type", int64(len("syscall"))) + prop("id", numSize) + prop("name", int64(len(row.Name))) + prop("args", n)
}

func refCloneReply(f *ReplyFrame) (any, int64) {
	r := &f.Res
	c := &ReplyFrame{ID: f.ID, Trap: f.Trap, Res: Result{Ret: r.Ret, Err: r.Err}}
	ok := r.Err == OK
	n := int64(2 * (numSize + 8)) // the ret array
	switch rowOf(f.Trap).Ret {
	case RetBytes:
		// A gathered read's segments, which may be views the sender
		// reuses once this returns, travel as the one buffer a read
		// replies with.
		segs := r.Segs
		if r.Data != nil {
			segs = nil
		}
		size := len(r.Data)
		for _, s := range segs {
			size += len(s)
		}
		if ok && r.Data != nil {
			c.Res.Data = r.Data
		} else if ok {
			data := make([]byte, 0, size)
			for _, s := range segs {
				data = append(data, s...)
			}
			c.Res.Data = data
		}
		n += int64(size) + 8
	case RetSegs:
		if !ok {
			c.Res.Ret = -1
			break
		}
		var m int64
		c.Res.Segs, m = cloneBufs(r.Segs, true)
		n += m + 8
	case RetStat:
		if ok {
			c.Res.Stat = r.Stat
		}
		n += statObj + 8
	case RetStr:
		if ok {
			c.Res.Str = r.Str
		}
		n += int64(len(r.Str)) + 8
	case RetDirents:
		if ok {
			c.Res.Ents = append([]Dirent(nil), r.Ents...)
		}
		for _, e := range r.Ents {
			n += int64(len(e.Name)) + direntObj + 8
		}
		n += 8
	case RetPair:
		if ok {
			c.Res.Aux = r.Aux
		}
		n += 2 * (numSize + 8)
	case RetStatus:
		if ok {
			c.Res.Aux[0] = r.Aux[0]
		}
		n += numSize + 8
	case RetPollfds:
		if ok {
			c.Res.Pollfds = r.Pollfds
		}
		n += int64(len(r.Pollfds))*(numSize+8) + 8
	}
	return c, prop("type", int64(len("reply"))) + prop("id", numSize) + prop("ret", n)
}

// Fixtures build fresh slices on every call, so the sender's copy and
// the reference's copy never share memory.
var moveHeap = new(int)

var moveArgs = map[string]func() Args{
	"full": func() Args {
		return Args{
			Int:     [3]int64{3, 7, 1 << 40},
			Str:     [2]string{"/tmp/a", "b"},
			Strs:    [2][]string{{"sh", "-c", ""}, {"A=1"}},
			Bytes:   []byte("payload"),
			Ints:    []int{0, 1, 2},
			Bufs:    [][]byte{[]byte("ab"), {}, []byte("c")},
			Pollfds: []Pollfd{{Fd: 3, Events: POLLIN, Revents: POLLHUP}, {Fd: 4, Events: POLLOUT}},
			Heap:    moveHeap,
			Cap:     4096,
		}
	},
	"zero": func() Args { return Args{} },
	"empty": func() Args {
		return Args{Strs: [2][]string{{}, {}}, Bytes: []byte{}, Ints: []int{}, Bufs: [][]byte{}, Pollfds: []Pollfd{}}
	},
}

func fullResult(err Errno) Result {
	return Result{
		Ret:     5,
		Err:     err,
		Data:    []byte("hello"),
		Segs:    [][]byte{[]byte("he"), {}, []byte("llo")},
		Str:     "/home/user",
		Ents:    []Dirent{{Name: "a", Type: DT_REG, Ino: 9}, {Name: "bb", Type: DT_DIR, Ino: 1 << 40}},
		Pollfds: []Pollfd{{Fd: 3, Events: POLLIN, Revents: POLLIN}, {Fd: 9, Revents: POLLNVAL}},
		Stat:    Stat{Mode: S_IFREG | 0o644, Size: 5, Mtime: 1, Atime: 2, Ctime: 3, Nlink: 1, Ino: 77},
		Aux:     [2]int64{3, 4},
	}
}

var moveResults = map[string]func() Result{
	"ok":         func() Result { return fullResult(OK) },
	"ok-nil":     func() Result { return Result{} },
	"ok-empty":   func() Result { return Result{Data: []byte{}, Segs: [][]byte{}, Ents: []Dirent{}, Pollfds: []Pollfd{}} },
	"ok-segs":    func() Result { return Result{Ret: 5, Segs: [][]byte{[]byte("he"), {}, []byte("llo")}} },
	"err":        func() Result { return Result{Ret: -1, Err: EBADF} },
	"err-filled": func() Result { return fullResult(ENOENT) },
}

// scribbleArgs overwrites every buffer, list and record a sender lent;
// Pollfds are not lent but given up, so they are left alone.
func scribbleArgs(a *Args) {
	for i := range a.Bytes {
		a.Bytes[i] = '#'
	}
	for _, b := range a.Bufs {
		for i := range b {
			b[i] = '#'
		}
	}
	for _, l := range a.Strs {
		for i := range l {
			l[i] = "#"
		}
	}
	for i := range a.Ints {
		a.Ints[i] = -9
	}
}

// scribbleResult overwrites every buffer and record a sender lent; Data
// and Pollfds are not lent but given up, so they are left alone.
func scribbleResult(r *Result) {
	for _, s := range r.Segs {
		for i := range s {
			s[i] = '#'
		}
	}
	for i := range r.Ents {
		r.Ents[i] = Dirent{Name: "#", Ino: 1}
	}
}

// sameSlice reports whether a and b are one slice: same length and,
// when not empty, the same first element.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestFrameMoveMatchesClone checks that a moved frame is what the old
// whole-frame clone delivered and charges the same bytes, for every
// row's argument shapes, every result shape (OK and failed, filled, nil
// and empty), a call refused before its op ran, and the doorbell; that
// buffers the sender lent and changes after posting do not show in the
// delivered frame; and that a poll call's Pollfds, with revents zeroed,
// and an OK reply's Data and Pollfds arrive as the sender's own slices.
func TestFrameMoveMatchesClone(t *testing.T) {
	for trap := 0; trap < SYS_max; trap++ {
		name := SyscallName(trap)
		for an, mk := range moveArgs {
			want, wantN := refCloneCall(&CallFrame{ID: 9, Trap: trap, Args: mk()})
			lent := mk()
			f := &CallFrame{ID: 9, Trap: trap, Args: lent}
			n := f.CloneInPlace()
			scribbleArgs(&lent)
			if n != wantN {
				t.Errorf("%s call (%s args): moved frame charges %d bytes, clone %d", name, an, n, wantN)
			}
			if !reflect.DeepEqual(f, want) {
				t.Errorf("%s call (%s args): moved frame\n%+v\nclone\n%+v", name, an, f, want)
			}
			if slices.Contains(rowOf(trap).Args, ArgPollfds) && !sameSlice(f.Args.Pollfds, lent.Pollfds) {
				t.Errorf("%s call (%s args): Pollfds copied, want the sender's slice moved", name, an)
			}
		}
		for rn, mk := range moveResults {
			want, wantN := refCloneReply(&ReplyFrame{ID: 9, Trap: trap, Res: mk()})
			lent := mk()
			f := &ReplyFrame{ID: 9, Trap: trap, Res: lent}
			n := f.CloneInPlace()
			scribbleResult(&lent)
			if n != wantN {
				t.Errorf("%s reply (%s): moved frame charges %d bytes, clone %d", name, rn, n, wantN)
			}
			if !reflect.DeepEqual(f, want) {
				t.Errorf("%s reply (%s): moved frame\n%+v\nclone\n%+v", name, rn, f, want)
			}
			if lent.Err != OK {
				continue
			}
			switch rowOf(trap).Ret {
			case RetBytes:
				if lent.Data != nil && !sameSlice(f.Res.Data, lent.Data) {
					t.Errorf("%s reply (%s): Data copied, want the sender's slice moved", name, rn)
				}
			case RetPollfds:
				if !sameSlice(f.Res.Pollfds, lent.Pollfds) {
					t.Errorf("%s reply (%s): Pollfds copied, want the sender's slice moved", name, rn)
				}
			}
		}
	}
	if n := (RingBell{}).CloneInPlace(); n != prop("type", int64(len("ringbell"))) {
		t.Errorf("doorbell charges %d bytes", n)
	}
}

// TestRecycledFrameMatchesClone checks that a frame recycled through
// its pool, after carrying the fullest payload, comes back zeroed and
// then clones exactly as a fresh frame does (same frame, same bytes
// charged) for every row and every argument and result fixture; and
// that releasing a reply twice keeps one copy in the pool.
func TestRecycledFrameMatchesClone(t *testing.T) {
	var calls CallPool
	var replies ReplyPool
	for trap := 0; trap < SYS_max; trap++ {
		name := SyscallName(trap)
		for an, mk := range moveArgs {
			used := calls.Take()
			used.ID, used.Trap, used.Args = 1, trap, moveArgs["full"]()
			used.CloneInPlace()
			calls.Put(used)
			f := calls.Take()
			if f != used || !reflect.DeepEqual(*f, CallFrame{}) {
				t.Fatalf("%s call: pool handed back %p %+v, want the zeroed %p", name, f, *f, used)
			}
			want, wantN := refCloneCall(&CallFrame{ID: 9, Trap: trap, Args: mk()})
			f.ID, f.Trap, f.Args = 9, trap, mk()
			if n := f.CloneInPlace(); n != wantN || !reflect.DeepEqual(f, want) {
				t.Errorf("%s call (%s args): recycled frame charges %d bytes, clone %d\n%+v\nclone\n%+v", name, an, n, wantN, f, want)
			}
			calls.Put(f)
		}
		for rn, mk := range moveResults {
			used := replies.Take()
			used.ID, used.Trap, used.Res = 1, trap, fullResult(OK)
			used.CloneInPlace()
			used.Release()
			f := replies.Take()
			if f != used || f.ID != 0 || f.Trap != 0 || !reflect.DeepEqual(f.Res, Result{}) {
				t.Fatalf("%s reply: pool handed back %p %+v, want the zeroed %p", name, f, *f, used)
			}
			v, wantN := refCloneReply(&ReplyFrame{ID: 9, Trap: trap, Res: mk()})
			want := v.(*ReplyFrame)
			f.ID, f.Trap, f.Res = 9, trap, mk()
			if n := f.CloneInPlace(); n != wantN || f.ID != want.ID || f.Trap != want.Trap || !reflect.DeepEqual(f.Res, want.Res) {
				t.Errorf("%s reply (%s): recycled frame charges %d bytes, clone %d\n%+v\nclone\n%+v", name, rn, n, wantN, f, want)
			}
			f.Release()
			f.Release()
			if len(replies.list.free) != 1 {
				t.Fatalf("%s reply: %d frames pooled after a double release, want 1", name, len(replies.list.free))
			}
		}
	}
}
