package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
)

// The reference encoding: the plain JS objects the asynchronous
// transport posted before calls and replies became typed frames. A
// frame's clone must charge exactly the bytes browser.Clone charges for
// its reference object, so every virtual clock stays where it was.

// refArgs is a call's argument list, in row order.
func refArgs(row *abi.Syscall, a *abi.Args) []browser.Value {
	vals := []browser.Value{}
	ni, ns, nl := 0, 0, 0
	for _, shape := range row.Args {
		switch shape {
		case abi.ArgInt, abi.ArgFd:
			vals = append(vals, a.Int[ni])
			ni++
		case abi.ArgOpt:
			if a.Int[ni] != 0 {
				vals = append(vals, a.Int[ni])
			}
			ni++
		case abi.ArgZero:
			vals = append(vals, int64(0))
		case abi.ArgStr:
			vals = append(vals, a.Str[ns])
			ns++
		case abi.ArgStrs:
			vals = append(vals, browser.StringArray(a.Strs[nl]))
			nl++
		case abi.ArgBytes:
			vals = append(vals, a.Bytes)
		case abi.ArgInts, abi.ArgLens:
			arr := make([]browser.Value, len(a.Ints))
			for i, v := range a.Ints {
				arr[i] = int64(v)
			}
			vals = append(vals, arr)
		case abi.ArgBufs:
			arr := make([]browser.Value, len(a.Bufs))
			for i, b := range a.Bufs {
				arr[i] = b
			}
			vals = append(vals, arr)
		case abi.ArgPollfds:
			raw := make([]browser.Value, 0, len(a.Pollfds)*2)
			for _, f := range a.Pollfds {
				raw = append(raw, int64(f.Fd), int64(f.Events))
			}
			vals = append(vals, raw)
		case abi.ArgOut:
			vals = append(vals, a.Cap)
		case abi.ArgHeap:
			vals = append(vals, a.Heap)
		}
	}
	return vals
}

func refCall(f *abi.CallFrame) browser.Value {
	row := &abi.Syscalls[f.Trap]
	return map[string]browser.Value{"type": "syscall", "id": f.ID, "name": row.Name, "args": refArgs(row, &f.Args)}
}

func refStat(st abi.Stat) map[string]browser.Value {
	return map[string]browser.Value{
		"mode": int64(st.Mode), "size": st.Size, "mtime": st.Mtime, "atime": st.Atime,
		"ctime": st.Ctime, "nlink": int64(st.Nlink), "ino": int64(st.Ino),
	}
}

func refDirent(d abi.Dirent) map[string]browser.Value {
	return map[string]browser.Value{"name": d.Name, "type": int64(d.Type), "ino": int64(d.Ino)}
}

// refRet is a completed call's [ret, errno, extra...] array.
func refRet(shape abi.Ret, r abi.Result) []browser.Value {
	head := []browser.Value{r.Ret, int64(r.Err)}
	switch shape {
	case abi.RetBytes:
		if r.Data == nil && r.Segs != nil {
			return append(head, bytes.Join(r.Segs, nil)) // a gathered read
		}
		return append(head, r.Data)
	case abi.RetSegs:
		if r.Err != abi.OK {
			return []browser.Value{int64(-1), int64(r.Err)}
		}
		arr := make([]browser.Value, len(r.Segs))
		for i, s := range r.Segs {
			arr[i] = s
		}
		return append(head, arr)
	case abi.RetStat:
		return append(head, refStat(r.Stat))
	case abi.RetStr:
		return append(head, r.Str)
	case abi.RetDirents:
		arr := make([]browser.Value, len(r.Ents))
		for i, e := range r.Ents {
			arr[i] = refDirent(e)
		}
		return append(head, arr)
	case abi.RetPair:
		return append(head, r.Aux[0], r.Aux[1])
	case abi.RetStatus:
		return append(head, r.Aux[0])
	case abi.RetPollfds:
		rev := make([]browser.Value, len(r.Pollfds))
		for i := range r.Pollfds {
			rev[i] = int64(r.Pollfds[i].Revents)
		}
		return append(head, rev)
	}
	return head
}

func refReply(f *abi.ReplyFrame) browser.Value {
	ret := []browser.Value{int64(-1), int64(f.Res.Err)} // refused before the op
	if f.Trap != 0 {
		ret = refRet(abi.Syscalls[f.Trap].Ret, f.Res)
	}
	return map[string]browser.Value{"type": "reply", "id": f.ID, "ret": ret}
}

// Argument and result fixtures: every field populated, every field zero
// or nil, and every list empty but non-nil. Each call builds fresh
// slices, so a fixture can be mutated without touching another; the
// heap is shared, as a SharedArrayBuffer is.
var fixtureHeap = browser.NewSAB(abi.HeapMinSize)

func fullArgs() abi.Args {
	return abi.Args{
		Int:     [3]int64{3, 7, 1 << 40},
		Str:     [2]string{"/tmp/a", "b"},
		Strs:    [2][]string{{"sh", "-c", ""}, {"A=1"}},
		Bytes:   []byte("payload"),
		Ints:    []int{0, 1, 2},
		Bufs:    [][]byte{[]byte("ab"), {}, []byte("c")},
		Heap:    fixtureHeap,
		Pollfds: []abi.Pollfd{{Fd: 3, Events: abi.POLLIN, Revents: abi.POLLHUP}, {Fd: 4, Events: abi.POLLOUT}},
		Cap:     4096,
	}
}

func emptyArgs() abi.Args {
	return abi.Args{Strs: [2][]string{{}, {}}, Bytes: []byte{}, Ints: []int{}, Bufs: [][]byte{}, Pollfds: []abi.Pollfd{}}
}

func fullResult(err abi.Errno) abi.Result {
	return abi.Result{
		Ret:     5,
		Err:     err,
		Data:    []byte("hello"),
		Segs:    [][]byte{[]byte("he"), {}, []byte("llo")},
		Str:     "/home/user",
		Ents:    []abi.Dirent{{Name: "a", Type: abi.DT_REG, Ino: 9}, {Name: "bb", Type: abi.DT_DIR, Ino: 1 << 40}},
		Pollfds: []abi.Pollfd{{Fd: 3, Events: abi.POLLIN, Revents: abi.POLLIN}, {Fd: 9, Revents: abi.POLLNVAL}},
		Stat:    abi.Stat{Mode: abi.S_IFREG | 0o644, Size: 5, Mtime: 1, Atime: 2, Ctime: 3, Nlink: 1, Ino: 77},
		Aux:     [2]int64{3, 4},
	}
}

func emptyResult(err abi.Errno) abi.Result {
	return abi.Result{Err: err, Data: []byte{}, Segs: [][]byte{}, Ents: []abi.Dirent{}, Pollfds: []abi.Pollfd{}}
}

func cloneBytes(v browser.Value) int64 {
	_, n := browser.Clone(v)
	return n
}

// TestAsyncFrameCloneBytes checks every frame charges the bytes of the
// object it stands for: every row (exit and the AsyncOnly rows among
// them), every result shape, OK and error results, a refused call, an
// ArgOpt zero and non-zero, and nil versus empty lists.
func TestAsyncFrameCloneBytes(t *testing.T) {
	args := map[string]func() abi.Args{"full": fullArgs, "zero": func() abi.Args { return abi.Args{} }, "empty": emptyArgs}
	results := map[string]func() abi.Result{
		"ok":         func() abi.Result { return fullResult(abi.OK) },
		"ok-nil":     func() abi.Result { return abi.Result{} },
		"ok-empty":   func() abi.Result { return emptyResult(abi.OK) },
		"ok-segs":    func() abi.Result { return abi.Result{Ret: 5, Segs: fullResult(abi.OK).Segs} },
		"err":        func() abi.Result { return abi.Result{Ret: -1, Err: abi.EBADF} },
		"err-filled": func() abi.Result { return fullResult(abi.ENOENT) },
		"err-empty":  func() abi.Result { return emptyResult(abi.EAGAIN) },
	}
	rows := 0
	for trap := 1; trap < abi.SYS_max; trap++ {
		rows++
		name := abi.Syscalls[trap].Name
		for an, mk := range args {
			f := &abi.CallFrame{ID: int64(trap), Trap: trap, Args: mk()}
			want := cloneBytes(refCall(f)) // before f moves
			if got := cloneBytes(f); got != want {
				t.Errorf("%s call (%s args): frame charges %d bytes, object %d", name, an, got, want)
			}
		}
		for rn, mk := range results {
			f := &abi.ReplyFrame{ID: int64(trap), Trap: trap, Res: mk()}
			want := cloneBytes(refReply(f)) // before f moves
			if got := cloneBytes(f); got != want {
				t.Errorf("%s reply (%s): frame charges %d bytes, object %d", name, rn, got, want)
			}
		}
	}
	if rows != abi.SYS_max-1 {
		t.Fatalf("%d rows checked, want %d", rows, abi.SYS_max-1)
	}
	for _, err := range []abi.Errno{abi.ENOSYS, abi.EBADF} {
		f := &abi.ReplyFrame{ID: 1, Res: abi.Result{Ret: -1, Err: err}}
		want := cloneBytes(refReply(f))
		if got := cloneBytes(f); got != want {
			t.Errorf("refused reply (%v): frame charges %d bytes, object %d", err, got, want)
		}
	}
	if got, want := cloneBytes(abi.RingBell{}), cloneBytes(map[string]browser.Value{"type": "ringbell"}); got != want {
		t.Errorf("ring doorbell: %d bytes, object %d", got, want)
	}
}

// TestRegistrationFrameCloneBytes compares the AsyncOnly rows' frames
// with the plain objects the runtimes posted before these calls joined
// the table. fork charges exactly what it did. personality and snapcap
// charge exactly two number elements less: personality dropped its
// unread return-value and wake offsets (the wake cell is
// abi.HeapWakeOff), snapcap its two unread words. Replies are unchanged.
func TestRegistrationFrameCloneBytes(t *testing.T) {
	call := func(id int64, name string, args ...browser.Value) browser.Value {
		return map[string]browser.Value{"type": "syscall", "id": id, "name": name, "args": args}
	}
	const dropped = 2 * (8 + 8) // two numbers, each in an array slot
	heap := browser.NewSAB(1 << 20)
	cases := []struct {
		name  string
		frame *abi.CallFrame
		old   browser.Value
		less  int64
	}{
		{"personality", &abi.CallFrame{ID: 0, Trap: abi.SYS_personality, Args: abi.Args{Heap: heap}},
			call(0, "personality", heap, int64(8), int64(abi.HeapWakeOff)), dropped},
		{"snapcap", &abi.CallFrame{ID: 1, Trap: abi.SYS_snapcap}, call(1, "snapcap", int64(0), int64(0)), dropped},
		{"fork-empty", &abi.CallFrame{ID: 2, Trap: abi.SYS_fork, Args: abi.Args{Bytes: []byte{}}},
			call(2, "fork", []byte{}, ""), 0},
		{"fork", &abi.CallFrame{ID: 1 << 40, Trap: abi.SYS_fork, Args: abi.Args{Bytes: make([]byte, 1<<16), Str: [2]string{"resume-after-fork"}}},
			call(1<<40, "fork", make([]byte, 1<<16), "resume-after-fork"), 0},
	}
	for _, c := range cases {
		if got, want := cloneBytes(c.frame), cloneBytes(c.old)-c.less; got != want {
			t.Errorf("%s call: frame charges %d bytes, want %d", c.name, got, want)
		}
		for _, res := range []abi.Result{{}, {Ret: 7}, {Ret: -1, Err: abi.EINVAL}} {
			f := &abi.ReplyFrame{ID: c.frame.ID, Trap: c.frame.Trap, Res: res}
			old := map[string]browser.Value{"type": "reply", "id": f.ID, "ret": []browser.Value{res.Ret, int64(res.Err)}}
			if got, want := cloneBytes(f), cloneBytes(old); got != want {
				t.Errorf("%s reply %+v: frame charges %d bytes, object %d", c.name, res, got, want)
			}
		}
	}
}

// TestAsyncFrameCloneIsDeep checks a moved frame shares no memory with
// its sender that the sender lent it: mutating every byte, string list
// and record the sender lent the frame leaves the delivered frame as a
// clone of an untouched original. A reply's Data (read, pread) and
// Pollfds (poll) are not lent: they belong to the completion, and the
// delivered frame carries the completion's own slice.
func TestAsyncFrameCloneIsDeep(t *testing.T) {
	for trap := 1; trap < abi.SYS_max; trap++ {
		a := fullArgs()
		c, _ := browser.Clone(&abi.CallFrame{ID: 1, Trap: trap, Args: a})
		scribble(a.Bytes)
		for _, b := range a.Bufs {
			scribble(b)
		}
		a.Strs[0][0], a.Strs[1][0] = "x", "y"
		a.Ints[0] = 99
		a.Pollfds[0] = abi.Pollfd{Fd: 99, Events: 99}
		want, _ := browser.Clone(&abi.CallFrame{ID: 1, Trap: trap, Args: fullArgs()})
		if !reflect.DeepEqual(c, want) {
			t.Errorf("%s call: copy changed with the original:\n%+v\nwant %+v", abi.Syscalls[trap].Name, c, want)
		}

		res := fullResult(abi.OK)
		rc, _ := browser.Clone(&abi.ReplyFrame{ID: 1, Trap: trap, Res: res})
		got := rc.(*abi.ReplyFrame).Res
		switch name := abi.Syscalls[trap].Name; abi.Syscalls[trap].Ret {
		case abi.RetBytes:
			if len(got.Data) == 0 || &got.Data[0] != &res.Data[0] {
				t.Errorf("%s reply: Data %q is not the completion's own slice", name, got.Data)
			}
		case abi.RetPollfds:
			if len(got.Pollfds) == 0 || &got.Pollfds[0] != &res.Pollfds[0] {
				t.Errorf("%s reply: Pollfds %+v is not the completion's own slice", name, got.Pollfds)
			}
		default:
			scribble(res.Data)
			for _, s := range res.Segs {
				scribble(s)
			}
			res.Ents[0].Name = "zz"
			res.Pollfds[0].Revents = 0
		}
		rwant, _ := browser.Clone(&abi.ReplyFrame{ID: 1, Trap: trap, Res: fullResult(abi.OK)})
		if !reflect.DeepEqual(rc, rwant) {
			t.Errorf("%s reply: copy changed with the original:\n%+v\nwant %+v", abi.Syscalls[trap].Name, rc, rwant)
		}
	}
}

func scribble(b []byte) {
	for i := range b {
		b[i] = '#'
	}
}

// frameWorld is a codec world whose task runs in a worker: frames the
// worker posts reach the kernel through a real structured clone, and
// the kernel's replies are collected by call id.
type frameWorld struct {
	*ringWorld
	wk      *browser.Worker
	replies map[int64][]*abi.ReplyFrame
}

func newFrameWorld(t testing.TB) *frameWorld {
	fw := &frameWorld{ringWorld: newCodecWorld(t), replies: map[int64][]*abi.ReplyFrame{}}
	started := false
	fw.run(t, func() {
		url := fw.sys.CreateObjectURL([]byte("frames"))
		fw.wk = fw.sys.NewWorker(fw.sys.Main, url, func(wk *browser.Worker) {
			wk.Ctx.OnMessage = func(v browser.Value) {
				if f, ok := v.(*abi.ReplyFrame); ok {
					fw.replies[f.ID] = append(fw.replies[f.ID], f)
				}
			}
			started = true
		})
	})
	if !fw.sim.RunUntil(func() bool { return started }) {
		t.Fatalf("worker never started")
	}
	fw.task.worker = fw.wk
	fw.wk.OnMessage = func(v browser.Value) { fw.k.onWorkerMessage(fw.task, fw.wk, v) }
	return fw
}

// send posts frames from the worker and runs the world until it idles.
func (fw *frameWorld) send(frames []*abi.CallFrame) {
	fw.sim.Post(fw.wk.Ctx.Sched(), fw.sim.Now(), func() {
		for _, f := range frames {
			fw.wk.PostToParent(f)
		}
	})
	fw.sim.Run()
}

// TestAsyncFrameHostile posts malformed call frames: each is answered
// exactly once, refused with its errno before any op runs.
func TestAsyncFrameHostile(t *testing.T) {
	neg := []int{4, -1}
	cases := []struct {
		name string
		f    abi.CallFrame
		want abi.Errno
	}{
		{"trap -1", abi.CallFrame{Trap: -1}, abi.ENOSYS},
		{"trap 0", abi.CallFrame{Trap: 0}, abi.ENOSYS},
		{"trap SYS_max", abi.CallFrame{Trap: abi.SYS_max}, abi.ENOSYS},
		{"readv 1025 lens", abi.CallFrame{Trap: abi.SYS_readv, Args: abi.Args{Int: [3]int64{hcFd}, Ints: make([]int, abi.IovMax+1)}}, abi.EINVAL},
		{"readv negative len", abi.CallFrame{Trap: abi.SYS_readv, Args: abi.Args{Int: [3]int64{hcFd}, Ints: neg}}, abi.EINVAL},
		{"readv total overflows", abi.CallFrame{Trap: abi.SYS_readv, Args: abi.Args{Int: [3]int64{hcFd}, Ints: []int{math.MaxInt, 1}}}, abi.EINVAL},
		{"writev 1025 bufs", abi.CallFrame{Trap: abi.SYS_writev, Args: abi.Args{Int: [3]int64{hcFd}, Bufs: make([][]byte, abi.IovMax+1)}}, abi.EINVAL},
		{"poll 4097 fds", abi.CallFrame{Trap: abi.SYS_poll, Args: abi.Args{Pollfds: make([]abi.Pollfd, abi.PollfdMax+1)}}, abi.EINVAL},
		{"read negative count", abi.CallFrame{Trap: abi.SYS_read, Args: abi.Args{Int: [3]int64{hcFd}, Cap: -13}}, abi.EINVAL},
		{"read bad fd", abi.CallFrame{Trap: abi.SYS_read, Args: abi.Args{Int: [3]int64{99}, Cap: 8}}, abi.EBADF},
		{"fstat negative fd", abi.CallFrame{Trap: abi.SYS_fstat, Args: abi.Args{Int: [3]int64{-1}}}, abi.EBADF},
	}
	fw := newFrameWorld(t)
	var frames []*abi.CallFrame
	for i := range cases {
		f := cases[i].f
		f.ID = int64(i)
		frames = append(frames, &f)
	}
	// A well-formed read rides along: answered with its row's result.
	okID := int64(len(cases))
	frames = append(frames, &abi.CallFrame{ID: okID, Trap: abi.SYS_read, Args: abi.Args{Int: [3]int64{hcFd}, Cap: 64}})
	fw.send(frames)
	for i, c := range cases {
		got := fw.replies[int64(i)]
		if len(got) != 1 {
			t.Errorf("%s: %d replies, want 1", c.name, len(got))
			continue
		}
		if r := got[0]; r.Res.Err != c.want || r.Res.Ret != -1 || r.Trap != 0 {
			t.Errorf("%s: reply trap %d ret %d err %v, want a refusal with %v", c.name, r.Trap, r.Res.Ret, r.Res.Err, c.want)
		}
	}
	if got := fw.replies[okID]; len(got) != 1 || got[0].Trap != abi.SYS_read || string(got[0].Res.Data) != "hello" {
		t.Errorf("well-formed read: replies %+v, want one carrying %q", got, "hello")
	}
}

// fuzzCallFrames decodes fuzz input into call frames with arbitrary
// traps (negative and past the table included) and argument lists.
// Calls that would end the task or park it forever are remapped, as
// fuzzFrames does for the heap codec, so every frame must be answered.
func fuzzCallFrames(data []byte) []*abi.CallFrame {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	num := func() int64 {
		switch tag := next(); tag % 4 {
		case 0:
			return int64(tag >> 2)
		case 1:
			return -int64(tag>>2) - 1
		case 2:
			var v uint64
			for j := 0; j < 8; j++ {
				v = v<<8 | uint64(next())
			}
			return int64(v)
		default:
			return hcFd
		}
	}
	count := func() int { // mostly short, sometimes past a limit
		b := next()
		if b < 250 {
			return int(b % 8)
		}
		return abi.PollfdMax + int(b) - 252
	}
	strs := []string{"/f", "/", "", "/nope", "../..", "/f/x", "\x00"}
	var frames []*abi.CallFrame
	for len(data) > 0 && len(frames) < 16 {
		f := &abi.CallFrame{ID: int64(len(frames)), Trap: int(int8(next()))}
		a := &f.Args
		for i := range a.Int {
			a.Int[i] = num()
		}
		a.Str = [2]string{strs[int(next())%len(strs)], strs[int(next())%len(strs)]}
		a.Strs = [2][]string{strs[:count()%len(strs)], strs[:count()%len(strs)]}
		a.Bytes = make([]byte, count())
		if f.Trap == abi.SYS_fork && next()%2 == 1 {
			a.Bytes = make([]byte, 1<<18) // a large fork image
		}
		for n := count(); len(a.Ints) < n; {
			a.Ints = append(a.Ints, int(num()))
		}
		a.Bufs = make([][]byte, count())
		for i := range a.Bufs {
			a.Bufs[i] = make([]byte, int(next())%4)
		}
		switch next() % 4 { // personality's heap
		case 1:
			a.Heap = a.Bytes // not a SharedArrayBuffer
		case 2:
			a.Heap = browser.NewSAB(int(next()) * 64) // smaller than the layout
		case 3:
			a.Heap = browser.NewSAB(abi.HeapMinSize)
		}
		a.Pollfds = make([]abi.Pollfd, count())
		for i := range a.Pollfds {
			a.Pollfds[i] = abi.Pollfd{Fd: int32(num()), Events: uint32(next())}
		}
		a.Cap = num() % (1 << 20)
		switch f.Trap {
		case abi.SYS_exit, abi.SYS_pipe2, abi.SYS_socket:
			f.Trap = abi.SYS_getpid
		case abi.SYS_kill:
			a.Int[0] = 1 << 20
		case abi.SYS_poll:
			a.Int[0] = 0
		case abi.SYS_wait4:
			a.Int[1] |= abi.WNOHANG
		case abi.SYS_ftruncate, abi.SYS_llseek, abi.SYS_pwrite, abi.SYS_pread:
			a.Int[1] %= 1 << 16
		}
		frames = append(frames, f)
	}
	return frames
}

// FuzzAsyncFrame posts random call frames from a worker: nothing may
// panic, the sender's clone of a frame with any trap included, and every
// frame gets exactly one reply.
func FuzzAsyncFrame(f *testing.F) {
	f.Add([]byte{abi.SYS_read, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{abi.SYS_readv, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 1})
	f.Add([]byte{abi.SYS_poll, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255})
	f.Add([]byte{abi.SYS_writev, 3, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2})
	f.Add([]byte{0xff, abi.SYS_max, 0, abi.SYS_fork})
	f.Add([]byte{abi.SYS_spawn, 0, 0, 0, 0, 0, 3, 3, 0, 2, 5, 5})
	// The AsyncOnly rows: personality with a heap that is not a
	// SharedArrayBuffer, one under the layout, and a valid one followed
	// by a read; fork with an empty and a large image; snapcap.
	f.Add([]byte{abi.SYS_personality, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{abi.SYS_personality, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 0, 0})
	f.Add([]byte{abi.SYS_personality, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, abi.SYS_read, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 32})
	f.Add([]byte{abi.SYS_fork, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{abi.SYS_fork, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{abi.SYS_snapcap})
	f.Fuzz(func(t *testing.T, data []byte) {
		frames := fuzzCallFrames(data)
		if len(frames) == 0 {
			return
		}
		fw := newFrameWorld(t)
		fw.send(frames)
		for _, fr := range frames {
			if n := len(fw.replies[fr.ID]); n != 1 {
				t.Fatalf("frame %d (%s) answered %d times", fr.ID, abi.SyscallName(fr.Trap), n)
			}
		}
		if len(fw.replies) != len(frames) {
			t.Fatalf("%d frames, replies for %d ids", len(frames), len(fw.replies))
		}
	})
}
