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

const ringWorldHeap = 1 << 20
const ringWorldRing = 16 * 1024

func newRingWorld(t testing.TB) *ringWorld {
	sim := sched.New()
	sys := browser.NewSystem(sim, browser.Chrome())
	clock := func() int64 { return sim.Now() }
	fsys := fs.NewFileSystem(fs.NewMemFS(clock), clock)
	k := NewKernel(sys, fsys, nil)
	task := &Task{
		k:       k,
		Pid:     1,
		cwd:     "/",
		heap:    browser.NewSAB(ringWorldHeap),
		retOff:  8,
		waitOff: 0,
	}
	k.tasks[1] = task
	reqOff := int64(ringWorldHeap - 2*ringWorldRing)
	repOff := int64(ringWorldHeap - ringWorldRing)
	if err := k.registerRing(task, reqOff, ringWorldRing, repOff, ringWorldRing); err != abi.OK {
		t.Fatalf("registerRing: %v", err)
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
// notify, every frame resolves through the fs batch entry point, and
// every reply lands with the right per-path result.
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
	if w.k.FSBatchedCalls.Load() != n {
		t.Fatalf("FSBatchedCalls = %d, want %d (whole storm through the batch entry)", w.k.FSBatchedCalls.Load(), n)
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

// TestBatchedDispatchMatchesFrameByFrame proves the ablation flag
// changes nothing observable: same replies, same stat payloads, still
// one notify (reply batching predates fs batching) — only the fs-level
// batch counter differs.
func TestBatchedDispatchMatchesFrameByFrame(t *testing.T) {
	type result struct {
		notifies int64
		batched  int64
		replies  map[uint32]abi.Stat
	}
	run := func(disable bool) result {
		w := newRingWorld(t)
		w.k.SetFeatures(Features{NoFSBatch: disable})
		const n = 32
		paths := make([]string, n)
		for i := range paths {
			paths[i] = fmt.Sprintf("/x%02d", i)
			w.fsys.WriteFile(paths[i], make([]byte, 100+i), 0o644, func(abi.Errno) {})
		}
		statPtrs := w.stageStatFrames(t, paths)
		w.drain(t)
		heap := w.task.heap.Bytes()
		res := result{notifies: w.k.RingNotifies.Load(), batched: w.k.FSBatchedCalls.Load(), replies: map[uint32]abi.Stat{}}
		for {
			seq, _, errno, ok := w.task.ring.rep.PopReply()
			if !ok {
				break
			}
			if errno != abi.OK {
				t.Fatalf("frame %d: %v", seq, errno)
			}
			st := abi.UnpackStat(heap[statPtrs[seq] : statPtrs[seq]+abi.StatSize])
			st.Ino = 0 // the global inode counter differs across worlds
			res.replies[seq] = st
		}
		return res
	}
	batched, scalar := run(false), run(true)
	if batched.notifies != 1 || scalar.notifies != 1 {
		t.Fatalf("notifies: batched=%d scalar=%d, want 1 and 1", batched.notifies, scalar.notifies)
	}
	if batched.batched == 0 || scalar.batched != 0 {
		t.Fatalf("FSBatchedCalls: batched=%d scalar=%d", batched.batched, scalar.batched)
	}
	if len(batched.replies) != len(scalar.replies) {
		t.Fatalf("reply counts differ: %d vs %d", len(batched.replies), len(scalar.replies))
	}
	for seq, st := range batched.replies {
		if scalar.replies[seq] != st {
			t.Fatalf("frame %d differs: batched %+v scalar %+v", seq, st, scalar.replies[seq])
		}
	}
}

// TestBatchMixedRunSplits: non-metadata frames interleaved in a drain
// split the stat runs but everything still completes with one notify.
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

// BenchmarkBatchedStatStorm drains a doorbell of stat frames — the
// `ls -l`/make probe storm — batched (one dentry-cache pass per drain)
// vs frame-by-frame (one pass per frame). Reported metrics: notifies
// per storm and fs cache passes per storm.
func BenchmarkBatchedStatStorm(b *testing.B) {
	const n = 256
	for _, cfg := range []struct {
		name string
		ft   Features
	}{
		{"batched", Features{}},
		{"frame-by-frame", Features{NoFSBatch: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			w := newRingWorld(b)
			w.k.SetFeatures(cfg.ft)
			paths := make([]string, n)
			for i := range paths {
				paths[i] = fmt.Sprintf("/bench/f%03d", i)
			}
			var merr abi.Errno = -1
			w.fsys.MkdirAll("/bench", 0o755, func(err abi.Errno) { merr = err })
			if merr != abi.OK {
				b.Fatalf("mkdir: %v", merr)
			}
			for _, p := range paths {
				w.fsys.WriteFile(p, []byte("x"), 0o644, func(abi.Errno) {})
			}
			notifies0 := w.k.RingNotifies.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.stageStatFrames(b, paths)
				w.drain(b)
				for {
					if _, _, _, ok := w.task.ring.rep.PopReply(); !ok {
						break
					}
				}
			}
			b.StopTimer()
			stats := w.fsys.CacheStats()
			b.ReportMetric(float64(w.k.RingNotifies.Load()-notifies0)/float64(b.N), "notifies/storm")
			b.ReportMetric(float64(stats.StatBatches)/float64(b.N), "batchpasses/storm")
			b.ReportMetric(float64(n), "frames/storm")
		})
	}
}
