package core

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/snapshot"
)

// A sync process's heap goes back to the browser when the process exits
// or execs (ReleaseSAB), and the next sync runtime to boot takes it
// (System.NewSAB). These tests play that runtime: they take the heap and
// register it as it would. Nothing the old image left in the kernel may
// write into the heap or read it afterwards.

// newRecycleWorld is a frameWorld whose task can exec /next, which
// boots as a worker that does nothing: the test registers the new
// image's heap itself.
func newRecycleWorld(t *testing.T) *frameWorld {
	fw := newFrameWorld(t)
	// The codec world staged its arguments below hcRec through Bytes();
	// record them, as every heap writer must.
	fw.task.heap.MarkDirty(0, hcRec)
	fw.k.Loader = func([]byte) (func(*browser.Worker), abi.Errno) { return func(*browser.Worker) {}, abi.OK }
	fw.fsys.WriteFile("/next", []byte("next"), 0o755, func(err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("write /next: %v", err)
		}
	})
	return fw
}

// bootHeap is what a sync runtime does at boot: take a heap of n bytes
// from the browser and reset the rings laid out in it.
func bootHeap(sys *browser.System, n int) *browser.SAB {
	sab := sys.NewSAB(n)
	if req, rep, _, ok := abi.HeapRings(sab.Bytes()); ok {
		req.Reset()
		rep.Reset()
	}
	return sab
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestLateCompletionSkipsRecycledHeap: a sync process parked in a pipe
// read is killed, or execs in the same doorbell, and its heap goes to
// the next runtime to boot. The read then completes, before that
// runtime registers the heap or after. Its result is dropped: the heap
// stays all zero and the new owner's reply ring holds only the replies
// to its own calls. After exec the new image registers the very same
// heap on the very same task, so only the ring tells the calls apart. A
// frame queued behind the exec is not run: its heap is gone.
func TestLateCompletionSkipsRecycledHeap(t *testing.T) {
	const late = "LATE-COMPLETION"
	for _, end := range []string{"kill", "exec"} {
		for _, registered := range []bool{false, true} {
			name := end
			if registered {
				name += "-registered"
			}
			t.Run(name, func(t *testing.T) {
				fw := newRecycleWorld(t)
				task, heap, ring := fw.task, fw.task.heap, fw.task.ring
				var rfd, wfd int
				fw.run(t, func() { rfd, wfd = fw.k.doPipe2(task) })
				// The test holds both ends, so the pipe outlives the
				// task's descriptors.
				rd, _ := task.lookFd(rfd)
				wd, _ := task.lookFd(wfd)
				rd.Ref()
				wd.Ref()

				ring.req.PushCall(1, abi.SYS_read, []int64{int64(rfd), hcOut, 64})
				if end == "exec" {
					const path, argv = 20000, 20100
					copy(heap.Bytes()[path:], "/next")
					copy(heap.Bytes()[argv:], "next\x00")
					heap.MarkDirty(path, argv+5-path)
					ring.req.PushCall(2, abi.SYS_exec, []int64{path, 5, argv, 5, 0, 0})
					ring.req.PushCall(3, abi.SYS_getcwd, []int64{hcOut, 64})
				}
				fw.drain(t)
				if end == "kill" {
					fw.run(t, func() { fw.k.Kill(task.Pid, abi.SIGKILL) })
				}
				if task.heap != nil || task.ring != nil {
					t.Fatal("the task kept its heap")
				}
				if ring.rep.Used() != 0 {
					t.Fatalf("the old ring holds %d reply bytes; the read parked and nothing else ran", ring.rep.Used())
				}

				next := bootHeap(fw.sys, ringWorldHeap)
				if next != heap {
					t.Fatal("the next runtime did not get the released heap")
				}
				owner := task // exec: the new image of the same task
				if end == "kill" {
					owner = &Task{k: fw.k, Pid: 2, cwd: "/"}
					fw.k.tasks[owner.Pid] = owner
				}
				completeLate := func() {
					fw.run(t, func() { writeMoved(wd, []byte(late), func(int, abi.Errno) {}) })
				}
				if !registered {
					completeLate()
				}
				if err := owner.setPersonality(next); err != abi.OK {
					t.Fatalf("personality: %v", err)
				}
				if registered {
					completeLate()
				}
				if !allZero(next.Bytes()) {
					t.Fatal("the late read wrote into the recycled heap")
				}
				owner.ring.req.PushCall(7, abi.SYS_getpid, nil)
				fw.run(t, func() { fw.k.drainRing(owner) })
				seq, ret, errno, ok := owner.ring.rep.PopReply()
				if !ok || seq != 7 || ret != int64(owner.Pid) || errno != abi.OK {
					t.Fatalf("new owner's getpid: seq %d ret %d errno %v ok %v", seq, ret, errno, ok)
				}
				if seq, _, _, ok := owner.ring.rep.PopReply(); ok {
					t.Fatalf("the new owner's ring holds a stray reply, seq %d", seq)
				}
			})
		}
	}
}

// TestCheckpointLiveExitMidway: a live checkpoint copies
// precopyPagesPerEvent pages per main-thread event. A process that exits
// or execs between two of those events fails the checkpoint with ESRCH
// and no dump, although by the next event its heap is another process's
// (after the exit) or was registered again by the process's new image
// (after exec), filled with that owner's bytes.
func TestCheckpointLiveExitMidway(t *testing.T) {
	const size = 4 * precopyPagesPerEvent * snapshot.PageSize
	for _, end := range []string{"kill", "exec"} {
		t.Run(end, func(t *testing.T) {
			fw := newRecycleWorld(t)
			task := fw.task
			heap := bootHeap(fw.sys, size)
			if err := task.setPersonality(heap); err != abi.OK {
				t.Fatalf("personality: %v", err)
			}
			var dump *snapshot.Dump
			errno := abi.Errno(-1)
			fw.run(t, func() {
				fw.k.CheckpointLive(task.Pid, func(d *snapshot.Dump, err abi.Errno) { dump, errno = d, err })
				if errno != -1 {
					t.Fatalf("the checkpoint ended in its first event: %v", errno)
				}
				if end == "kill" {
					fw.k.Kill(task.Pid, abi.SIGKILL)
				} else {
					fw.k.doExec(task, "/next", []string{"next"}, nil, func(err abi.Errno) {
						if err != abi.OK {
							t.Errorf("exec: %v", err)
						}
					})
				}
				next := bootHeap(fw.sys, size)
				if next != heap {
					t.Fatal("the next runtime did not get the released heap")
				}
				b := next.Bytes()
				for i := range b {
					b[i] = 0xEE
				}
				if end == "exec" {
					task.setPersonality(next)
				}
			})
			fw.sim.Run()
			if errno != abi.ESRCH || dump != nil {
				t.Fatalf("checkpoint: errno %v, dump %v; want ESRCH and none", errno, dump != nil)
			}
		})
	}
}
