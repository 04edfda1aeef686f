package browsix_test

import (
	"bytes"
	"fmt"
	"testing"

	browsix "repro"
	"repro/internal/abi"
)

// Differential proof for the checkpoint/fork subsystem: snapshots change
// nothing observable. Every transport (async Node runtimes, ring sync)
// produces byte-identical stdout/stderr/exit codes with snapshots on and
// off, repeated snapshot-on runs land on identical virtual clocks, and a
// fleet of jobs cloned from one shared registry shows zero cross-child
// page bleed with every COW pin returned.

func snapPayload() []byte {
	payload := make([]byte, 96*1024)
	for i := range payload {
		payload[i] = byte(i*13 + i>>7)
	}
	return payload
}

var snapCmds = []string{
	"echo fork me gently",
	"cat /data/fruit.txt | grep apple | sort | wc -l",
	"wc -c /big.bin",
	"sha1sum /big.bin",
	"ls /usr/bin",
}

func TestSnapshotDifferential(t *testing.T) {
	payload := snapPayload()
	type result struct {
		outs     []string
		clock    int64
		clones   int64
		captures int64
	}
	run := func(name string, v variant, snaps bool) result {
		in := v.boot(browsix.Config{EnableSnapshots: snaps})
		put(t, in, "/data/fruit.txt", []byte("banana\napple\ncherry\napple pie\n"))
		put(t, in, "/big.bin", payload)
		var r result
		// Two passes: the first pass's boots capture images, the second
		// pass's boots must clone them — and nothing may differ.
		for pass := 0; pass < 2; pass++ {
			for _, cmd := range snapCmds {
				res := runCmd(t, in, cmd)
				if res.Code != 0 {
					t.Fatalf("%s pass %d: %q exited %d: %s", name, pass, cmd, res.Code, res.Stderr)
				}
				r.outs = append(r.outs, string(res.Stdout)+"\x00"+string(res.Stderr))
			}
		}
		r.clock = in.Now()
		r.clones = in.Kernel.CloneBoots.Load()
		r.captures = in.Kernel.SnapshotCaptures.Load()
		return r
	}

	for _, v := range variants(transports) {
		off := run(v.String()+"/off", v, false)
		on := run(v.String()+"/on", v, true)
		on2 := run(v.String()+"/on2", v, true)
		for i, o := range off.outs {
			if o != on.outs[i] {
				t.Errorf("%s: %q diverged with snapshots on:\noff: %q\non:  %q",
					v, snapCmds[i%len(snapCmds)], o, on.outs[i])
			}
		}
		if on.captures == 0 {
			t.Errorf("%s: no snapshot captured", v)
		}
		if on.clones == 0 {
			t.Errorf("%s: second pass booted no clones", v)
		}
		if off.clones != 0 || off.captures != 0 {
			t.Errorf("%s: snapshots-off instance touched the subsystem (%d clones, %d captures)",
				v, off.clones, off.captures)
		}
		// Determinism: identical snapshot-on runs land on one clock.
		if on.clock != on2.clock {
			t.Errorf("%s: snapshot-on clock not deterministic: %d vs %d", v, on.clock, on2.clock)
		}
		// Every clone returned its COW pins: images are back to base.
		if err := run0balance(t, v); err != nil {
			t.Error(err)
		}
	}
}

// run0balance reruns a snapshot-on workload and checks the COW ledger after
// every process exited.
func run0balance(t *testing.T, v variant) error {
	in := v.boot(browsix.Config{EnableSnapshots: true})
	put(t, in, "/big.bin", snapPayload())
	for pass := 0; pass < 2; pass++ {
		if res := runCmd(t, in, "wc -c /big.bin"); res.Code != 0 {
			return fmt.Errorf("%s balance run exited %d", v, res.Code)
		}
	}
	if err := in.Snapshots().VerifyBalanced(); err != nil {
		return fmt.Errorf("%s: %v", v, err)
	}
	return nil
}

// TestForkSpawnRatioGuard pins the subsystem's reason to exist: booting a
// Node-runtime utility from its snapshot must be at least 5x cheaper in
// virtual time than a cold boot (the paper-calibrated init is ~100ms of
// worker spawn + artifact eval + runtime init; a clone pays the worker
// spawn, a stub eval, and image restore). Virtual time is deterministic,
// so this is an exact guard, not a flaky benchmark.
func TestForkSpawnRatioGuard(t *testing.T) {
	elapsed := func(snaps bool) int64 {
		in := browsix.Boot(browsix.Config{EnableSnapshots: snaps})
		browsix.InstallBase(in)
		// First run warms caches (and captures when snapshots are on);
		// the second run measures a cold boot vs a clone boot on equal
		// cache state.
		runCmd(t, in, "echo warm")
		res := runCmd(t, in, "echo measured")
		if res.Code != 0 || string(res.Stdout) != "measured\n" {
			t.Fatalf("echo (snaps=%v) exited %d with %q", snaps, res.Code, res.Stdout)
		}
		return res.Elapsed
	}
	cold := elapsed(false)
	forked := elapsed(true)
	if cold < forked*5 {
		t.Fatalf("forked spawn not >=5x cheaper: cold %dns vs forked %dns (%.1fx)",
			cold, forked, float64(cold)/float64(forked))
	}
	t.Logf("spawn-to-exit: cold %dns, forked %dns (%.1fx)", cold, forked, float64(cold)/float64(forked))
}

// stageWasmFleet stages the base image with sync-runtime coreutils
// (fleet Setup variant: no testing.T on the worker goroutine).
func stageWasmFleet(in *browsix.Instance) {
	browsix.InstallBase(in)
	browsix.InstallWasmCoreutils(in)
}

// TestFleetSharedSnapshotNoBleed runs N jobs cloned from one shared,
// sealed registry — sync runtimes, so every clone COWs real heap pages
// out of the shared arena concurrently — and checks that outputs are
// exactly what each job's distinct input demands (no cross-child page
// bleed), that virtual clocks are identical across worker counts, and
// that the registry's COW pins balance fleet-wide.
func TestFleetSharedSnapshotNoBleed(t *testing.T) {
	const jobs = 8
	mkJobs := func() []browsix.Job {
		out := make([]browsix.Job, jobs)
		for i := range out {
			i := i
			data := bytes.Repeat([]byte{byte('a' + i)}, 1000+100*i)
			out[i] = browsix.Job{
				Name:  fmt.Sprintf("job%d", i),
				Setup: func(in *browsix.Instance) { stageWasmFleet(in); put(t, in, "/in.bin", data) },
				Spec:  browsix.Spec{Argv: []string{"/usr/bin/wc", "-c", "/in.bin"}},
			}
		}
		return out
	}
	warm := &browsix.SnapshotWarmup{
		Setup: stageWasmFleet,
		Cmds:  []string{"wc -c /etc/motd"},
	}
	run := func(workers int) ([]browsix.JobResult, browsix.FleetStats) {
		fl := &browsix.Fleet{Workers: workers, SnapshotWarmup: warm}
		return fl.Run(mkJobs())
	}
	serial, sstats := run(1)
	parallel, pstats := run(4)
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errs: serial %v parallel %v", i, serial[i].Err, parallel[i].Err)
		}
		want := fmt.Sprintf("%8d /in.bin\n", 1000+100*i)
		if got := string(serial[i].Stdout); got != want {
			t.Errorf("job %d serial stdout %q, want %q", i, got, want)
		}
		if !bytes.Equal(serial[i].Stdout, parallel[i].Stdout) ||
			!bytes.Equal(serial[i].Stderr, parallel[i].Stderr) ||
			serial[i].Code != parallel[i].Code {
			t.Errorf("job %d diverged between 1 and 4 workers", i)
		}
		if serial[i].VirtualNs != parallel[i].VirtualNs {
			t.Errorf("job %d virtual clock diverged: %d vs %d",
				i, serial[i].VirtualNs, parallel[i].VirtualNs)
		}
	}
	for _, st := range []browsix.FleetStats{sstats, pstats} {
		if st.CloneBoots == 0 {
			t.Error("fleet booted no clones from the shared registry")
		}
		if st.SnapshotLeak != nil {
			t.Errorf("COW pins leaked: %v", st.SnapshotLeak)
		}
	}
	if sstats.CloneBoots != pstats.CloneBoots {
		t.Errorf("clone count diverged across worker counts: %d vs %d",
			sstats.CloneBoots, pstats.CloneBoots)
	}
}

// TestCheckpointLiveDump checkpoints a running sync-runtime guest:
// iterative pre-copy with a short final stop-copy, dumped as diagnostics.
func TestCheckpointLiveDump(t *testing.T) {
	in := variant{tr: ring}.boot(browsix.Config{EnableSnapshots: true})
	put(t, in, "/big.bin", snapPayload())
	var outBuf bytes.Buffer
	p, err := in.Start(browsix.Spec{
		Argv:   []string{"/usr/bin/sha1sum", "/big.bin"},
		Stdout: &outBuf,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	// Let the guest boot far enough to register its heap, then
	// checkpoint it mid-run.
	in.RunUntil(func() bool {
		tk := in.Kernel.Task(p.Pid)
		return tk == nil || tk.StateName() == "Z" || tk.HasHeap()
	})
	dump, errno := in.CheckpointLive(p.Pid)
	if errno != abi.OK {
		t.Fatalf("CheckpointLive: %v", errno)
	}
	if dump.HeapLen == 0 || len(dump.Mem) != dump.HeapLen {
		t.Fatalf("dump heap %d bytes, mem %d", dump.HeapLen, len(dump.Mem))
	}
	if dump.Rounds < 1 || dump.FinalPages == 0 {
		t.Errorf("pre-copy telemetry empty: %+v rounds, %d final", dump.Rounds, dump.FinalPages)
	}
	// Bounded pause: the final stop-copy must be well under a full-heap
	// stop-the-world copy.
	full := int64(float64(dump.HeapLen) * 0.15)
	if dump.PauseNs <= 0 || dump.PauseNs >= full {
		t.Errorf("pause %dns not bounded (full copy ~%dns)", dump.PauseNs, full)
	}
	enc := dump.Encode()
	if !bytes.Contains(enc, []byte("pid:")) || !bytes.Contains(enc, []byte("precopy:")) {
		t.Errorf("dump encoding missing fields:\n%s", enc[:min(len(enc), 400)])
	}
	if _, werr := p.Wait(); werr != nil {
		t.Fatalf("wait: %v", werr)
	}
	// Heap-less guest (async runtime): fd/env/cwd-only dump.
	p2, err := in.Start(browsix.Spec{Argv: []string{"/usr/bin/echo", "hi"}})
	if err != nil {
		t.Fatalf("start echo: %v", err)
	}
	dump2, errno := in.CheckpointLive(p2.Pid)
	if errno != abi.OK {
		t.Fatalf("CheckpointLive(echo): %v", errno)
	}
	if dump2.Mem != nil {
		t.Errorf("async-runtime dump has %d heap bytes, want none", len(dump2.Mem))
	}
	p2.Wait()
}
