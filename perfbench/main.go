// Command perfbench is the repository's benchmark. It runs one workload
// through the public browsix API, checks every output, and prints the
// result as one JSON object on the last line of standard output:
//
//	perfbench --workload latex-edit --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (host cost and
// virtual time); with --trace 1 the run is split into an untraced and a
// traced half and the metrics are the per-layer ones. README.md lists
// every metric and what it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

const memoryLimit = 1 << 30

// workloads maps a workload name to its driver.
var workloads = map[string]func(*bench){
	"latex-edit":  runLatex,
	"meme-swarm":  runMeme,
	"fleet-shell": runFleet,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one run shares between the workload driver and
// the measurement helpers.
type bench struct {
	seed    uint64
	seconds float64
	traced  bool
	tr      *tracer

	attempted int
	failed    int
	metrics   map[string]metric

	setupNs []float64
	// hostNsPerEvent is the traced half's host time per simulator event.
	hostNsPerEvent float64
}

func main() {
	workload := flag.String("workload", "", "workload name: latex-edit, meme-swarm or fleet-shell")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "host seconds to measure the timed loop")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		os.Exit(2)
	}
	// A soft cap on the heap: the machine running this is shared, and a
	// workload's set-ups plus its recycled worlds stay well below it.
	debug.SetMemoryLimit(memoryLimit)
	if *trace == 1 {
		// Finer allocation sampling for the alloc_share attribution;
		// set before the workload allocates anything.
		runtime.MemProfileRate = 32 << 10
	}
	b := newBench(*seed, *seconds, *trace == 1)
	run(b)
	out, err := json.Marshal(b.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func newBench(seed uint64, seconds float64, traced bool) *bench {
	return &bench{
		seed:    seed,
		seconds: seconds,
		traced:  traced,
		tr:      newTracer(),
		metrics: map[string]metric{},
	}
}

func (b *bench) result() result {
	return result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
}

// put records one metric; end-to-end metrics are kept only in an
// untraced run and per-layer metrics only in a traced one.
func (b *bench) put(endToEnd bool, name, unit string, v float64) {
	if endToEnd == b.traced {
		return
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) e2e(name, unit string, v float64)   { b.put(true, name, unit, v) }
func (b *bench) layer(name, unit string, v float64) { b.put(false, name, unit, v) }

// failf counts one failed check and reports the first few on stderr.
func (b *bench) failf(format string, args ...any) {
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// setup builds the workload's world from scratch reps times, timing
// each (in CPU time, like ops) as one set-up sample; the last world is
// the one kept.
func (b *bench) setup(reps int, build func()) {
	b.tr.phase = phaseSetup
	b.tr.on.Store(b.traced)
	for i := 0; i < reps; i++ {
		b.timeSetup(build)
	}
	b.tr.on.Store(false)
}

func (b *bench) timeSetup(build func()) {
	t0 := cpuNow()
	build()
	b.setupNs = append(b.setupNs, float64(cpuNow()-t0))
	b.tr.setups++
}

// singleThreaded pins a workload to one P. A simulation is one thread
// of control handed between goroutines; with
// more Ps every handoff wakes an idle P that spins looking for work, and
// that CPU time, which depends on what else the machine runs, would be
// charged to the op.
func singleThreaded() { runtime.GOMAXPROCS(1) }

// loop is a single-instance workload's closed loop.
type loop struct {
	// Ops 0..window-1 always run, so their virtual times and counter
	// deltas are the same for a seed however fast the host is.
	window int
	// Before every recycle-th op the world is rebuilt (untimed, and
	// counted as one more set-up sample), bounding what a long run
	// accumulates in one instance. 0 means never.
	recycle int
	rebuild func()
	// collect, when non-zero, also runs the collector (untimed) before
	// every collect-th op in between rebuilds.
	collect int
	// steps reads the current world's simulator event count.
	steps func() uint64
	// op runs op i and returns the units its host time is divided by for
	// the per-op percentiles (1, or a swarm round's request count).
	op func(i int) int
}

// loopStats is what one measured phase of the timed loop produced.
type loopStats struct {
	ops     int
	hostNs  []float64     // host CPU ns per op unit
	busy    time.Duration // host CPU time inside ops
	steps   uint64        // simulator events inside ops
	alloc   uint64        // bytes allocated inside ops
	mallocs uint64
}

// phase runs ops first, first+1, ... until budget of op CPU time has
// been spent and at least minOps ops (counting from 0) have run. Profiles,
// when non-nil, are paused across rebuilds.
func (b *bench) phase(l loop, first, minOps int, budget time.Duration, prof *profiles) loopStats {
	var st loopStats
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := first; i < minOps || st.busy < budget; i++ {
		if l.recycle > 0 && i > 0 && i%l.recycle == 0 {
			var r0, r1 runtime.MemStats
			runtime.ReadMemStats(&r0)
			on := b.tr.on.Swap(false)
			prof.pause()
			// Collect the cycle's garbage before the rebuild and the old
			// world after it, so every cycle of ops starts from the same
			// heap.
			runtime.GC()
			b.timeSetup(l.rebuild)
			runtime.GC()
			prof.resume()
			b.tr.on.Store(on)
			runtime.ReadMemStats(&r1)
			ms0.TotalAlloc += r1.TotalAlloc - r0.TotalAlloc
			ms0.Mallocs += r1.Mallocs - r0.Mallocs
		} else if l.collect > 0 && i > 0 && i%l.collect == 0 {
			runtime.GC()
		}
		s0 := l.steps()
		t0 := cpuNow()
		units := l.op(i)
		d := cpuNow() - t0
		st.steps += l.steps() - s0
		st.busy += d
		st.hostNs = append(st.hostNs, float64(d)/float64(max(units, 1)))
		st.ops++
	}
	runtime.ReadMemStats(&ms1)
	st.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	return st
}

// run drives the loop. Untraced, one phase covers --seconds of op time
// and yields the host end-to-end metrics. Traced, the first half runs
// untraced and the second half with spans and profiles on; the ratio
// of their throughputs is the tracing overhead.
func (l loop) run(b *bench) {
	total := time.Duration(b.seconds * float64(time.Second))
	b.tr.phase = phaseLoop
	runtime.GC() // drop the discarded set-up worlds before timing starts
	if l.recycle > 0 {
		// Collect only between cycles (the rebuild forces one), never
		// during an op: a collection landing on some ops and not others
		// made per-op host time depend on where the collector happened
		// to run. The memory limit still applies. Allocation volume is
		// its own metric.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	if !b.traced {
		b.emitHost(b.phase(l, 0, l.window, total, nil))
		return
	}
	a := b.phase(l, 0, l.window, total/2, nil)
	prof := startProfiles()
	b.tr.on.Store(true)
	t := b.phase(l, a.ops, 0, total-total/2, prof)
	b.tr.on.Store(false)
	prof.stop(b)
	b.hostNsPerEvent = ratio(float64(t.busy), float64(t.steps))
	b.tr.loopOps = t.ops
	b.emitOverhead(a, t)
	b.emitSpans()
}

// cpuNow is the process's user-mode CPU time so far (every thread).
// Host time is measured in it rather than on the wall clock, so time the
// machine's other tenants take is not charged to an op; kernel time is
// left out too, because it is almost all page faults on the heap, whose
// cost varies with the machine's memory state (allocation volume is its
// own metric).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano())
}

// emitHost records the host-clock end-to-end metrics of one phase.
func (b *bench) emitHost(st loopStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ops := float64(st.ops)
	b.e2e("setup_s", "s", median(b.setupNs)/1e9)
	b.e2e("ops_per_s", "1/s", ops/st.busy.Seconds())
	b.e2e("host_op_p50_ms", "ms", pctl(st.hostNs, 50)/1e6)
	b.e2e("host_op_p90_ms", "ms", pctl(st.hostNs, 90)/1e6)
	b.e2e("alloc_mb_per_op", "MB", float64(st.alloc)/ops/1e6)
	b.e2e("allocs_per_op", "count", float64(st.mallocs)/ops)
	b.e2e("heap_peak_mb", "MB", float64(ms.HeapSys)/1e6)
}

// emitOverhead records the traced run's own cost: throughput with
// tracing off (first half) and on (second half).
func (b *bench) emitOverhead(untraced, traced loopStats) {
	u := float64(untraced.ops) / untraced.busy.Seconds()
	t := float64(traced.ops) / traced.busy.Seconds()
	b.layer("trace.untraced_ops_per_s", "1/s", u)
	b.layer("trace.traced_ops_per_s", "1/s", t)
	b.layer("trace.overhead_ratio", "ratio", ratio(u, t))
}

// emitVirtual records the virtual-clock latency metrics over the
// deterministic window's samples (ns).
func (b *bench) emitVirtual(samples []float64) {
	s := append([]float64(nil), samples...)
	b.e2e("virtual_p50_ms", "ms", pctl(s, 50)/1e6)
	b.e2e("virtual_p90_ms", "ms", pctl(s, 90)/1e6)
	b.e2e("virtual_p99_ms", "ms", pctl(s, 99)/1e6)
}

// emitCapacity records ops per virtual second over the window's
// samples (ns): the rate one client sustains in a closed loop.
func (b *bench) emitCapacity(samples []float64) {
	var total float64
	for _, v := range samples {
		total += v
	}
	b.e2e("virtual_capacity_rps", "1/s", float64(len(samples))/(total/1e9))
}
