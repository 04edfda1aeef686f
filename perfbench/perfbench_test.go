package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Run with: cd perfbench && go test -timeout 20m .

// deterministic reports whether a metric must be bit-equal between two
// runs with one seed: every virtual-clock metric and every per-layer
// count, but nothing timed on the host and nothing divided by a number
// of ops the host's speed decides.
func deterministic(name string) bool {
	switch {
	case strings.HasPrefix(name, "virtual_"):
		return true
	case strings.HasPrefix(name, "api."), strings.HasPrefix(name, "trace."),
		strings.HasPrefix(name, "host_share."), strings.HasPrefix(name, "alloc_share."),
		name == "sched.host_ns_per_event":
		return false
	}
	return strings.Contains(name, ".")
}

func runOnce(t *testing.T, workload string, seed uint64, traced bool) result {
	t.Helper()
	b := newBench(seed, 0.01, traced)
	workloads[workload](b)
	r := b.result()
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d",
			workload, seed, traced, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

// TestDeterminism runs every workload twice with one seed, untraced and
// traced, and requires bit-equal virtual metrics and per-layer counts.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	for name := range workloads {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				a, b := runOnce(t, name, 11, traced), runOnce(t, name, 11, traced)
				compared := 0
				for k, m := range a.Metrics {
					if !deterministic(k) {
						continue
					}
					compared++
					if m2, ok := b.Metrics[k]; !ok || math.Float64bits(m.Value) != math.Float64bits(m2.Value) {
						t.Errorf("traced=%v %s: %v then %v", traced, k, m.Value, b.Metrics[k].Value)
					}
				}
				if compared < 5 {
					t.Errorf("traced=%v: only %d deterministic metrics compared", traced, compared)
				}
				if traced {
					var share float64
					for k, m := range a.Metrics {
						if strings.HasPrefix(k, "host_share.") {
							share += m.Value
						}
					}
					if math.Abs(share-1) > 1e-9 {
						t.Errorf("host shares sum to %v, want 1 (CPU profile not decoded?)", share)
					}
				}
			}
		})
	}
}

// TestSeedChangesInputs checks that a second seed changes every
// generated input: the edit text, the swarm's arrival schedule and
// request mix, and the fleet's input sizes and bytes.
func TestSeedChangesInputs(t *testing.T) {
	const s1, s2 = 11, 12
	d1, _ := latexDoc(s1, 1)
	d2, _ := latexDoc(s2, 1)
	if d1 == d2 {
		t.Error("latex-edit: revision text does not depend on the seed")
	}
	if newRNG(s1, streamRound).next() == newRNG(s2, streamRound).next() {
		t.Error("meme-swarm: swarm seed (arrival schedule) does not depend on the seed")
	}
	if newRNG(s1, streamMix).next() == newRNG(s2, streamMix).next() {
		t.Error("meme-swarm: request mix does not depend on the seed")
	}
	sizes := func(seed uint64) []float64 {
		var out []float64
		for i := 0; i < fleetStrata; i++ {
			out = append(out, stratified(seed, streamSize, i, fleetStrata))
		}
		return out
	}
	same := true
	for i, v := range sizes(s1) {
		same = same && v == sizes(s2)[i]
	}
	if same {
		t.Error("fleet-shell: input sizes do not depend on the seed")
	}
	b1, b2 := make([]byte, 64), make([]byte, 64)
	newRNG(s1, streamSession).fill(b1)
	newRNG(s2, streamSession).fill(b2)
	if bytes.Equal(b1, b2) {
		t.Error("fleet-shell: input bytes do not depend on the seed")
	}
}

// TestStratified checks that each block of n items covers every
// stratum exactly once.
func TestStratified(t *testing.T) {
	const n = 16
	for block := 0; block < 4; block++ {
		seen := make([]bool, n)
		for i := block * n; i < (block+1)*n; i++ {
			v := stratified(5, streamSize, i, n)
			k := int(v * n)
			if v < 0 || v >= 1 || seen[k] {
				t.Fatalf("item %d: value %v in stratum %d (seen %v)", i, v, k, seen[k])
			}
			seen[k] = true
		}
	}
}
