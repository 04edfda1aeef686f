package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	browsix "repro"
)

// Spans are recorded in the benchmark's own code around each call into
// the public API; the program itself is not instrumented.

// spanNames are the api-layer spans every traced run reports, whether
// or not the workload uses them (unused ones read 0).
var spanNames = []string{
	"api.boot", "api.stage", "api.start", "api.wait", "api.edit",
	"api.verify", "api.swarm", "api.fleet_setup", "api.fleet_run",
}

const (
	phaseSetup = iota
	phaseLoop
)

type span struct {
	name       string
	parent     int
	phase      int
	start, end time.Duration // since the tracer's epoch
	virtualNs  int64
}

// tracer keeps spans in memory; they are folded into metrics when the
// run ends. Recording is on during set-up and the traced half of the
// timed loop of a traced run, and off otherwise.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	// phase, setups and loopOps are written only while no other
	// goroutine records spans.
	phase   int
	setups  int
	loopOps int

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id, or -1 when recording is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on.Load() {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, phase: t.phase, start: now})
	return len(t.spans) - 1
}

// finish closes span id, charging it virtualNs of virtual time.
func (t *tracer) finish(id int, virtualNs int64) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	t.spans[id].virtualNs = virtualNs
}

// span runs fn inside a span named name whose virtual time is in's
// clock advance across fn (in may be nil: no virtual time).
func (b *bench) span(name string, in *browsix.Instance, parent int, fn func()) {
	id := b.tr.begin(name, parent)
	if id < 0 {
		fn()
		return
	}
	var v0 int64
	if in != nil {
		v0 = in.Now()
	}
	fn()
	var dv int64
	if in != nil {
		dv = in.Now() - v0
	}
	b.tr.finish(id, dv)
}

// selfTimes folds the spans into per-name self time (host ns: duration
// minus the union of child intervals) and virtual time, per phase.
func (t *tracer) selfTimes() (host, virt [2]map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for p := range host {
		host[p], virt[p] = map[string]float64{}, map[string]float64{}
	}
	for id, s := range t.spans {
		self := s.end - s.start - covered(s, children[id])
		host[s.phase][s.name] += float64(self)
		virt[s.phase][s.name] += float64(s.virtualNs)
	}
	return host, virt
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// emitSpans reports every api span per op: spans seen in the timed
// loop are divided by the traced ops, spans seen only during set-up by
// the number of set-ups.
func (b *bench) emitSpans() {
	host, virt := b.tr.selfTimes()
	for _, name := range spanNames {
		h, v := host[phaseLoop][name], virt[phaseLoop][name]
		den := float64(b.tr.loopOps)
		if _, inLoop := host[phaseLoop][name]; !inLoop {
			h, v = host[phaseSetup][name], virt[phaseSetup][name]
			den = float64(b.tr.setups)
		}
		b.layer(name+".host_ms_per_op", "ms", ratio(h, den)/1e6)
		b.layer(name+".virtual_ms_per_op", "ms", ratio(v, den)/1e6)
	}
}
