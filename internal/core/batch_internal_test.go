package core

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/fs"
	"repro/internal/sched"
)

// ringWorld builds a kernel plus a synthetic ring-registered task — no
// worker, no runtime — so tests and benchmarks can push raw call frames
// into the request ring and observe exactly what one doorbell drain does.
type ringWorld struct {
	sim  *sched.Sim
	sys  *browser.System
	k    *Kernel
	fsys *fs.FileSystem
	task *Task
}

// ringWorldHeap is the heap a ringWorld's task registers: the runtimes'
// size, with the abi layout's rings at its top.
const ringWorldHeap = 1 << 20

func newRingWorld(t testing.TB) *ringWorld {
	sim := sched.New()
	sys := browser.NewSystem(sim, browser.Chrome())
	clock := func() int64 { return sim.Now() }
	fsys := fs.NewFileSystem(fs.NewMemFS(clock), clock)
	k := NewKernel(sys, fsys, nil)
	task := &Task{k: k, Pid: 1, cwd: "/"}
	k.tasks[1] = task
	if err := task.setPersonality(browser.NewSAB(ringWorldHeap)); err != abi.OK {
		t.Fatalf("personality: %v", err)
	}
	task.ring.req.Reset()
	task.ring.rep.Reset()
	return &ringWorld{sim: sim, sys: sys, k: k, fsys: fsys, task: task}
}

// stageStatFrames writes paths + stat buffers into the heap scratch area
// and pushes one SYS_stat frame per path into the request ring.
func (w *ringWorld) stageStatFrames(t testing.TB, paths []string) []int64 {
	heap := w.task.heap.Bytes()
	ptr := int64(64)
	statPtrs := make([]int64, len(paths))
	for i, p := range paths {
		copy(heap[ptr:], p)
		pp, pn := ptr, int64(len(p))
		ptr += (pn + 7) &^ 7
		statPtrs[i] = ptr
		ptr += abi.StatSize
		if !w.task.ring.req.PushCall(uint32(i), abi.SYS_stat, []int64{pp, pn, statPtrs[i]}) {
			t.Fatalf("request ring full at frame %d", i)
		}
	}
	return statPtrs
}

// drain rings the doorbell inside a simulator event and runs it down.
func (w *ringWorld) drain(t testing.TB) {
	done := false
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() {
		w.k.drainRing(w.task)
		done = true
	})
	if !w.sim.RunUntil(func() bool { return done }) {
		t.Fatalf("drain never completed")
	}
}

// TestStatStormSingleNotify is the acceptance guard for the batched
// drain: a doorbell carrying N stat frames produces exactly ONE process
// notify, and every reply lands with the right per-path result.
func TestStatStormSingleNotify(t *testing.T) {
	w := newRingWorld(t)
	const n = 100
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%03d", i)
		var werr abi.Errno = -1
		w.fsys.WriteFile(paths[i], make([]byte, i+1), 0o644, func(err abi.Errno) { werr = err })
		if werr != abi.OK {
			t.Fatalf("stage %s: %v", paths[i], werr)
		}
	}
	statPtrs := w.stageStatFrames(t, paths)

	notifiesBefore := w.k.RingNotifies.Load()
	w.drain(t)
	if got := w.k.RingNotifies.Load() - notifiesBefore; got != 1 {
		t.Fatalf("drained %d stat frames with %d notifies, want exactly 1", n, got)
	}

	// Every reply present, in the reply ring, with correct stat payloads.
	heap := w.task.heap.Bytes()
	got := 0
	for {
		seq, ret, errno, ok := w.task.ring.rep.PopReply()
		if !ok {
			break
		}
		if ret != 0 || errno != abi.OK {
			t.Fatalf("frame %d: ret=%d errno=%v", seq, ret, errno)
		}
		st := abi.UnpackStat(heap[statPtrs[seq] : statPtrs[seq]+abi.StatSize])
		if st.Size != int64(seq)+1 {
			t.Fatalf("frame %d: size %d, want %d", seq, st.Size, seq+1)
		}
		got++
	}
	if got != n {
		t.Fatalf("popped %d replies, want %d", got, n)
	}
}

// TestBatchMixedRunSplits: non-metadata frames interleaved with stat
// frames in a drain still complete with one notify.
func TestBatchMixedRunSplits(t *testing.T) {
	w := newRingWorld(t)
	w.fsys.WriteFile("/a", []byte("aa"), 0o644, func(abi.Errno) {})
	w.fsys.WriteFile("/b", []byte("bbb"), 0o644, func(abi.Errno) {})
	heap := w.task.heap.Bytes()
	stage := func(ptr int64, s string) (int64, int64) {
		copy(heap[ptr:], s)
		return ptr, int64(len(s))
	}
	pa, na := stage(64, "/a")
	pb, nb := stage(128, "/b")
	sp1, sp2 := int64(256), int64(512)
	r := w.task.ring.req
	r.PushCall(0, abi.SYS_stat, []int64{pa, na, sp1})
	r.PushCall(1, abi.SYS_getpid, nil) // splits the run
	r.PushCall(2, abi.SYS_stat, []int64{pb, nb, sp2})
	before := w.k.RingNotifies.Load()
	w.drain(t)
	if got := w.k.RingNotifies.Load() - before; got != 1 {
		t.Fatalf("notifies = %d, want 1", got)
	}
	want := map[uint32]int64{0: 0, 1: 1, 2: 0} // getpid returns pid 1
	seen := 0
	for {
		seq, ret, errno, ok := w.task.ring.rep.PopReply()
		if !ok {
			break
		}
		if errno != abi.OK || ret != want[seq] {
			t.Fatalf("frame %d: ret=%d errno=%v", seq, ret, errno)
		}
		seen++
	}
	if seen != 3 {
		t.Fatalf("replies = %d, want 3", seen)
	}
	if a := abi.UnpackStat(heap[sp1 : sp1+abi.StatSize]); a.Size != 2 {
		t.Fatalf("/a size %d", a.Size)
	}
	if b := abi.UnpackStat(heap[sp2 : sp2+abi.StatSize]); b.Size != 3 {
		t.Fatalf("/b size %d", b.Size)
	}
}
