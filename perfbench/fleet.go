package main

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	browsix "repro"
)

// fleet-shell: a Fleet with snapshot warm-up. Each op is one session:
// boot a fresh Instance, InstallBase, for half of the sessions also
// InstallWasmCoreutils (utilities on the sync ring with zero-copy
// grants; the rest stay on the async Node runtime), stage a seeded
// 64 KiB-2 MiB input and run one pipeline.

const (
	// One worker: with one worker per core (2 on the reference box) the
	// per-session host cost spread 9-20% from run to run on a shared
	// machine, against 4-6% with one, too wide for a regression bound.
	fleetWorkers = 1
	fleetSetups  = 7
	fleetWindow  = 64 // sessions whose virtual times and counters are reported
	fleetStrata  = 16
	fleetMinIn   = 64 << 10
	fleetMaxIn   = 2 << 20
	fleetCommand = "cat in | tee /tmp/out | sha1sum; ls -l /usr/bin | wc -l"
)

// fleetWarmup boots every runtime the session pipeline spawns once, so
// the fleet's sealed snapshot registry holds their post-boot images.
var fleetWarmup = &browsix.SnapshotWarmup{
	Setup: browsix.InstallBase,
	Cmds:  []string{"cat /etc/motd | tee /tmp/w | sha1sum; ls -l /usr/bin | wc -l"},
}

// session is what one fleet session measured.
type session struct {
	done      bool
	hostNs    float64
	virtualNs int64
	counters  counters
	failures  []string
}

type fleetRun struct{ b *bench }

// runSession is one op on a freshly booted instance; stream selects
// the seeded inputs. parent is the enclosing span.
func (f *fleetRun) runSession(in *browsix.Instance, stream uint64, parent int) session {
	b := f.b
	var s session
	fail := func(what string) {
		s.failures = append(s.failures, fmt.Sprintf("fleet: session %d: %s", stream, what))
	}
	// Sizes are stratified over blocks of sessions, one per size stratum;
	// alternate strata run wasm, so each block has exactly half wasm
	// sessions, and both halves see the same spread of sizes.
	i := int(stream)
	u := stratified(b.seed, streamSize, i, fleetStrata)
	wasm := (int(u*fleetStrata)+i/fleetStrata)%2 == 0
	size := fleetMinIn + int(float64(fleetMaxIn-fleetMinIn)*u)
	input := make([]byte, size)
	newRNG(b.seed, streamSession+stream).fill(input)

	b.span("api.stage", in, parent, func() {
		browsix.InstallBase(in)
		if wasm {
			browsix.InstallWasmCoreutils(in)
		}
		if err := in.FS().WriteFile("in", input, 0o644); err != nil {
			fail("stage input")
		}
	})
	var out, errOut bytes.Buffer
	var p *browsix.Process
	var code int
	var err error
	v0 := in.Now()
	b.span("api.start", in, parent, func() {
		p, err = in.Start(browsix.Spec{
			Argv: []string{"/bin/sh", "-c", fleetCommand}, Dir: "/",
			Stdout: &out, Stderr: &errOut,
		})
	})
	if err == nil {
		b.span("api.wait", in, parent, func() { code, err = p.Wait() })
	}
	s.virtualNs = in.Now() - v0
	b.span("api.verify", nil, parent, func() {
		if err != nil || code != 0 {
			fail("pipeline failed")
			return
		}
		sum := sha1.Sum(input)
		entries, derr := in.FS().ReadDir("usr/bin")
		want := hex.EncodeToString(sum[:]) + "  -\n" + strconv.Itoa(len(entries)) + "\n"
		if derr != nil || normalize(out.String()) != want {
			fail(fmt.Sprintf("stdout %q want %q err %q", out.String(), want, errOut.String()))
		}
		if back, rerr := in.FS().ReadFile("tmp/out"); rerr != nil || !bytes.Equal(back, input) {
			fail("/tmp/out differs from the input")
		}
		if in.Kernel.LeaseGrants.Load() != in.Kernel.LeaseReturns.Load() {
			fail("lease ledger unbalanced")
		}
	})
	s.counters = readCounters(in)
	s.done = true
	return s
}

// normalize trims the padding wc puts before its count.
func normalize(out string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimSpace(l)
	}
	return strings.Join(lines, "\n")
}

// fleetOutcome is one Fleet.Run's measurement.
type fleetOutcome struct {
	setupNs  float64       // CPU from Run called to the first job booted (snapshot warm-up)
	loopCPU  time.Duration // process CPU from the first boot to the last session's end
	sessions []session
	alloc    uint64
	mallocs  uint64
	stats    browsix.FleetStats
}

// run executes a fleet of n sessions (streams first..first+n-1);
// sessions at index >= minOps that start after until are skipped. With
// one worker, the boot hook and the jobs run one after another on the
// worker's goroutine, so the process's CPU time while a session runs is
// that session's own.
func (f *fleetRun) run(first uint64, n, minOps int, until time.Time) fleetOutcome {
	b := f.b
	var o fleetOutcome
	o.sessions = make([]session, n)
	booted := false
	var cpu0, cpuEnd time.Duration
	var ms0 runtime.MemStats
	var runSpan int
	start := cpuNow()
	setupSpan := b.tr.begin("api.fleet_setup", -1)
	jobs := make([]browsix.Job, n)
	for i := range jobs {
		i := i
		jobs[i].Run = func(in *browsix.Instance) browsix.JobOutput {
			if i >= minOps && time.Now().After(until) {
				return browsix.JobOutput{}
			}
			t0 := cpuNow()
			s := f.runSession(in, first+uint64(i), runSpan)
			cpuEnd = cpuNow()
			s.hostNs = float64(cpuEnd - t0)
			o.sessions[i] = s
			return browsix.JobOutput{}
		}
	}
	fl := &browsix.Fleet{
		Workers:        fleetWorkers,
		SnapshotWarmup: fleetWarmup,
		OnBoot: func(int, *browsix.Instance) {
			if !booted {
				booted, cpu0 = true, cpuNow()
				o.setupNs = float64(cpu0 - start)
				b.tr.finish(setupSpan, 0)
				b.tr.phase = phaseLoop
				runSpan = b.tr.begin("api.fleet_run", -1)
				runtime.ReadMemStats(&ms0)
			}
		},
	}
	b.tr.phase = phaseSetup
	_, o.stats = fl.Run(jobs)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	b.tr.finish(runSpan, 0)
	o.loopCPU = cpuEnd - cpu0
	o.alloc, o.mallocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
	return o
}

// account counts a fleet's sessions and audits its ledgers.
func (f *fleetRun) account(o fleetOutcome) {
	b := f.b
	for _, s := range o.sessions {
		if !s.done {
			continue
		}
		b.attempted++
		if len(s.failures) > 0 {
			b.failf("%s", strings.Join(s.failures, "; "))
		}
	}
	if o.stats.StagedSlotsLeaked != 0 {
		b.failf("fleet: %d staged write slots leaked", o.stats.StagedSlotsLeaked)
	}
	if o.stats.SnapshotLeak != nil {
		b.failf("fleet: snapshot pin ledger: %v", o.stats.SnapshotLeak)
	}
}

// done returns the sessions that ran.
func (o fleetOutcome) done() []session {
	var out []session
	for _, s := range o.sessions {
		if s.done {
			out = append(out, s)
		}
	}
	return out
}

func runFleet(b *bench) {
	f := &fleetRun{b: b}
	// Calibration fleets of one session each: set-up samples, and the
	// host cost of a session, which sizes the timed fleet's job list.
	var setupNs, calib []float64
	for k := 0; k < fleetSetups-1; k++ {
		o := f.run(1<<20+uint64(k), 1, 1, time.Time{})
		f.account(o)
		setupNs = append(setupNs, o.setupNs)
		calib = append(calib, o.sessions[0].hostNs)
	}
	jobs := func(secs float64) int {
		return fleetWindow + int(2*secs*1e9/median(calib)) + 2
	}
	deadline := func(secs float64) time.Time {
		return time.Now().Add(time.Duration((median(setupNs)/1e9 + secs) * float64(time.Second)))
	}

	secs := b.seconds
	if b.traced {
		secs /= 2
	}
	main := f.run(0, jobs(secs), fleetWindow, deadline(secs))
	f.account(main)
	b.setupNs = append(setupNs, main.setupNs)

	var virt []float64
	li := layerInputs{ops: fleetWindow, delta: counters{}}
	for _, s := range main.sessions[:fleetWindow] {
		virt = append(virt, float64(s.virtualNs))
		li.delta.add(s.counters)
		li.cached += s.counters["fs.cached_pages"]
	}
	li.cached /= fleetWindow
	ran := main.done()
	li.cowFaultsPerOp = ratio(float64(main.stats.CowFaults), float64(len(ran)))
	if b.traced {
		b.tr.on.Store(true)
		prof := startProfiles()
		traced := f.run(1<<21, jobs(secs), 0, deadline(secs))
		b.tr.on.Store(false)
		f.account(traced)
		prof.stop(b)
		tran := traced.done()
		b.tr.setups, b.tr.loopOps = 1, len(tran)
		var hostNs, steps float64
		for _, s := range tran {
			hostNs += s.hostNs
			steps += float64(s.counters["sched.events"])
		}
		b.hostNsPerEvent = ratio(hostNs, steps)
		b.emitOverhead(loopStats{ops: len(ran), busy: main.loopCPU}, loopStats{ops: len(tran), busy: traced.loopCPU})
		b.emitSpans()
	} else {
		st := loopStats{ops: len(ran), busy: main.loopCPU, alloc: main.alloc, mallocs: main.mallocs}
		for _, s := range ran {
			st.hostNs = append(st.hostNs, s.hostNs)
		}
		b.emitHost(st)
	}
	b.emitLayers(li)
	b.emitVirtual(virt)
	b.emitCapacity(virt)
	if b.traced {
		return
	}

	// One block of the same sessions on plain instances, where every
	// spawn is a cold boot: the median session.
	cold := f.runCold(1 << 22)
	f.account(cold)
	var coldNs []float64
	for _, s := range cold.sessions {
		coldNs = append(coldNs, float64(s.virtualNs))
	}
	b.e2e("virtual_cold_ms", "ms", median(coldNs)/1e6)
}

// runCold runs one block of sessions (streams first..) on a fleet
// without snapshot warm-up.
func (f *fleetRun) runCold(first uint64) fleetOutcome {
	var o fleetOutcome
	o.sessions = make([]session, fleetStrata)
	jobs := make([]browsix.Job, fleetStrata)
	for i := range jobs {
		i := i
		jobs[i].Run = func(in *browsix.Instance) browsix.JobOutput {
			o.sessions[i] = f.runSession(in, first+uint64(i), -1)
			return browsix.JobOutput{}
		}
	}
	_, o.stats = (&browsix.Fleet{Workers: fleetWorkers}).Run(jobs)
	return o
}
