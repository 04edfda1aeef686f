package main

import (
	"math"
	"sort"
)

// rng is a splitmix64 stream: every generated input derives from the
// workload seed through one of these, so a seed fixes the inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed ^ (stream+1)*0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Streams name the independent input sequences derived from one seed;
// item i of a stream draws from newRNG(seed, stream+i).
const (
	streamDoc     = 1 << 56 // latex-edit: revision text, per revision
	streamWords   = 2 << 56 // latex-edit: revision length strata
	streamRound   = 3 << 56 // meme-swarm: per-round swarm seeds
	streamLadder  = 4 << 56 // meme-swarm: capacity-ladder swarm seeds
	streamMix     = 5 << 56 // meme-swarm: request mix, per round
	streamSession = 6 << 56 // fleet-shell: input bytes, per session
	streamSize    = 7 << 56 // fleet-shell: input size strata
)

// stratified returns a value in [0, 1) for item i of a stream: items
// are cut into blocks of n, and each block puts exactly one item in each
// 1/n-wide stratum, in seeded order and at a seeded offset. Every window
// of whole blocks thus sees the same spread of values whatever the seed,
// while the seed still changes every item.
func stratified(seed, stream uint64, i, n int) float64 {
	r := newRNG(seed, stream+1<<52+uint64(i/n))
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	for k := n - 1; k > 0; k-- {
		j := r.intn(k + 1)
		perm[k], perm[j] = perm[j], perm[k]
	}
	u := float64(newRNG(seed, stream+uint64(i)).next()>>11) / (1 << 53)
	return (float64(perm[i%n]) + u) / float64(n)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill writes pseudo-random bytes into b.
func (r *rng) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.next()
		for j := i; j < i+8 && j < len(b); j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

// pctl is the nearest-rank percentile p (0..100) of xs; xs is sorted in
// place. It returns 0 for an empty slice.
func pctl(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(p*float64(len(xs))/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
