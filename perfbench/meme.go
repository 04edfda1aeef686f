package main

import (
	"encoding/json"
	"sort"

	browsix "repro"
	"repro/internal/abi"
	"repro/internal/httpx"
	"repro/internal/meme"
	"repro/internal/netsim"
)

// meme-swarm: the in-Browsix meme server (GopherJS, async transport)
// under an open-loop swarm of keep-alive clients. Each op is one swarm
// round at a fixed offered rate below capacity; about 90% of requests
// are GET /healthz and 10% GET /api/templates. POST /api/meme is left
// out: one generation costs seconds of modelled CPU, which would hide
// the transport. A fixed ladder of offered rates then finds capacity.

const (
	memeSetups = 5
	memeWindow = 60    // rounds whose latencies and counters are reported
	memeRate   = 250.0 // offered requests per virtual second, about half of capacity
	memeRTT    = 40_000_000
	// A finished swarm leaves its keep-alive connections open, so every
	// round adds idle descriptors to the server's poll set; the server is
	// rebuilt from scratch every memeRecycle rounds.
	memeRecycle = 10

	// Capacity: the highest ladder rate whose round has p99 <= memeSLO,
	// no errors, and no growing backlog.
	memeSLO         = 50_000_000
	memeLadderStart = 300.0
	memeLadderStep  = 1.15
	memeLadderRungs = 12
)

// swarmShape is a round's client count and requests per client.
type swarmShape struct{ clients, per int }

var (
	memeRound  = swarmShape{32, 16}
	memeLadder = swarmShape{64, 128}
)

type memeRun struct {
	b         *bench
	in        *browsix.Instance
	templates string // the expected /api/templates body
	pid       int    // the server's pid
	launchNs  int64  // server launched
	listenNs  int64  // server listening
}

// roundResult is one swarm round's outcome.
type roundResult struct {
	rep  netsim.LoadReport
	lats []int64 // per-request virtual latency from its due time
	late bool    // the last quarter of arrivals waited much longer than the first
}

// round runs one seeded swarm round at rate requests per virtual second.
// A timed-loop round counts as one attempted op that fails on any bad
// response, swarm error or lost request; a ladder round (probe) fails
// the run only on a bad response, since errors past capacity are what
// the ladder looks for.
func (m *memeRun) round(seed uint64, sh swarmShape, rate float64, probe bool) roundResult {
	b, in := m.b, m.in
	gap := int64(float64(sh.clients) / rate * 1e9)
	mix := newRNG(seed, streamMix)
	templates := make([]bool, sh.clients*sh.per)
	for i := range templates {
		templates[i] = mix.intn(10) == 0
	}
	respNs := make([]int64, len(templates))
	bad := 0
	var lastNs int64
	s := &netsim.Swarm{
		Clients: sh.clients, PerClient: sh.per, Seed: seed,
		OpenLoop: true, KeepAlive: true, MeanGapNs: gap,
		Request: func(client, seq int) *httpx.Request {
			if templates[client*sh.per+seq] {
				return &httpx.Request{Method: "GET", Path: "/api/templates"}
			}
			return &httpx.Request{Method: "GET", Path: "/healthz"}
		},
		OnResponse: func(client, seq int, resp *httpx.Response) {
			lastNs = in.Sim.Now()
			respNs[client*sh.per+seq] = lastNs
			if !validResponse(resp, templates[client*sh.per+seq], m.templates) {
				bad++
			}
		},
	}
	var r roundResult
	b.span("api.swarm", in, -1, func() { r.rep = browsix.RunSwarm(in, s, meme.Port) })
	if !probe {
		b.attempted++
	}
	b.span("api.verify", nil, -1, func() {
		lost := r.rep.Errors != 0 || r.rep.Requests != len(templates)
		if bad != 0 || (lost && !probe) {
			b.failf("meme: round %x: %d bad responses, report %+v", seed, bad, r.rep)
		}
		if bad != 0 || lost {
			return
		}
		r.lats, r.late = latencies(seed, sh, gap, lastNs-r.rep.DurationNs, respNs)
		if !noEarlierThanReport(r.lats, r.rep) {
			b.failf("meme: round %x: recomputed latencies below the swarm's own %+v", seed, r.rep)
		}
	})
	return r
}

// latencies rebuilds each request's due time from the swarm's seeded
// open-loop schedule (a splitmix64 stream per client, gaps uniform on
// [0, 2*gap]) and returns latency = response time - due time. It also
// reports whether the latest quarter of arrivals waited more than twice
// as long (median) as the earliest quarter: a growing backlog.
func latencies(seed uint64, sh swarmShape, gap, startNs int64, respNs []int64) ([]int64, bool) {
	lats := make([]int64, len(respNs))
	type arrival struct{ due, lat int64 }
	var all []arrival
	for c := 0; c < sh.clients; c++ {
		r := rng{s: seed ^ (uint64(c)+1)*0x9e3779b97f4a7c15}
		next := func() int64 { return int64(r.next() % uint64(2*gap+1)) }
		t := next()
		for q := 0; q < sh.per; q++ {
			i := c*sh.per + q
			lats[i] = respNs[i] - (startNs + t)
			all = append(all, arrival{t, lats[i]})
			t += next()
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	q := len(all) / 4
	med := func(as []arrival) float64 {
		xs := make([]float64, len(as))
		for i, a := range as {
			xs[i] = float64(a.lat)
		}
		return median(xs)
	}
	return lats, med(all[len(all)-q:]) > 2*med(all[:q])+1e6
}

// validResponse checks one response: status 200, and the body of
// GET /healthz ("ok") or GET /api/templates (the JSON name list). The
// body is checked by length and content type only: the swarm client
// hands OnResponse a body that aliases its read buffer, which it
// compacts before the callback when a pipelined response follows, so
// the bytes may already be overwritten (the report's byte count is not).
func validResponse(resp *httpx.Response, templates bool, list string) bool {
	if templates {
		return resp.Status == 200 && len(resp.Body) == len(list) &&
			resp.Header["Content-Type"] == "application/json"
	}
	return resp.Status == 200 && len(resp.Body) == len("ok") && resp.Header["Content-Type"] == ""
}

// noEarlierThanReport checks recomputed latencies against the swarm's
// own nearest-rank percentiles. The swarm times a request from when its
// arrival event ran, which is at or after the due time the benchmark
// times it from (the generator runs late when client work queues on
// its context), so every percentile must be at least the report's.
func noEarlierThanReport(lats []int64, rep netsim.LoadReport) bool {
	s := append([]int64(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(p int) int64 {
		idx := (p*len(s) + 99) / 100
		if idx < 1 {
			idx = 1
		}
		return s[idx-1]
	}
	return len(s) == rep.Requests && at(50) >= rep.P50 && at(95) >= rep.P95 &&
		at(99) >= rep.P99 && s[len(s)-1] >= rep.Max
}

// boot builds the server's world: boot, stage base image and meme
// server, launch it and wait until it listens.
func (m *memeRun) boot() {
	b := m.b
	if m.in != nil {
		m.stop()
		m.in = nil // let the old world go before the new one is built
	}
	b.span("api.boot", nil, -1, func() { m.in = browsix.Boot(browsix.Config{}) })
	b.span("api.stage", m.in, -1, func() {
		browsix.InstallBase(m.in)
		browsix.InstallMeme(m.in, memeRTT)
	})
	m.launchNs = m.in.Now()
	b.span("api.start", m.in, -1, func() { m.pid = m.in.StartMemeServerArgs() })
	m.listenNs = m.in.Now()
}

// stop kills the server and lets the instance quiesce, so its
// coroutines end and the world can be collected, then audits it.
func (m *memeRun) stop() {
	if err := m.in.Kill(m.pid, abi.SIGKILL); err != abi.OK {
		m.b.failf("meme: kill server: %v", err)
	}
	m.in.Run()
	m.b.ledgerOK(m.in, "meme")
}

func runMeme(b *bench) {
	singleThreaded()
	m := &memeRun{b: b}
	names := make([]string, 0, len(meme.Templates()))
	for n := range meme.Templates() {
		names = append(names, n)
	}
	sort.Strings(names)
	list, _ := json.Marshal(names)
	m.templates = string(list)
	b.setup(memeSetups, m.boot)

	var virt []float64
	var coldNs float64
	li := layerInputs{ops: memeWindow, delta: counters{}}
	loop{
		window:  memeWindow,
		recycle: memeRecycle,
		rebuild: m.boot,
		steps:   func() uint64 { return m.in.Sim.Steps() },
		op: func(i int) int {
			var c0 counters
			if i < memeWindow {
				c0 = readCounters(m.in)
			}
			r := m.round(newRNG(b.seed, streamRound+uint64(i)).next(), memeRound, memeRate, false)
			if i == 0 && r.lats != nil {
				// Cold: launch to listening, then the median request of
				// the fresh server's first round.
				lats := make([]float64, len(r.lats))
				for k, l := range r.lats {
					lats[k] = float64(l)
				}
				coldNs = float64(m.listenNs-m.launchNs) + median(lats)
			}
			if i < memeWindow {
				for _, l := range r.lats {
					virt = append(virt, float64(l))
				}
				li.requests += r.rep.Requests
				li.retries += r.rep.Retries
				li.respBytes += r.rep.Bytes
				c1 := readCounters(m.in)
				li.delta.add(c1.sub(c0))
				li.cached = c1["fs.cached_pages"]
			}
			return r.rep.Requests
		},
	}.run(b)
	b.emitLayers(li)
	b.emitVirtual(virt)
	b.e2e("virtual_cold_ms", "ms", coldNs/1e6)
	if !b.traced {
		b.e2e("virtual_capacity_rps", "1/s", m.capacity())
	}
	m.stop()
}

// capacity climbs the rate ladder until a round misses the latency
// limit, loses a request or shows a growing backlog, and returns the
// throughput (completed requests per virtual second) at which p99 would
// reach the limit, interpolated between the last passing and the first
// failing rung. Past the limit the rung's own throughput stands in.
// Every rung meets a freshly booted server, so a rung's result depends
// on its rate and seed only.
func (m *memeRun) capacity() float64 {
	var pass roundResult
	rate := memeLadderStart
	for k := 0; k < memeLadderRungs; k, rate = k+1, rate*memeLadderStep {
		m.boot()
		r := m.round(newRNG(m.b.seed, streamLadder+uint64(k)).next(), memeLadder, rate, true)
		if r.lats != nil && r.rep.P99 <= memeSLO && !r.late {
			pass = r
			continue
		}
		if pass.lats == nil || r.lats == nil || r.late {
			break
		}
		lo, hi := float64(pass.rep.RPSx1000), float64(r.rep.RPSx1000)
		f := float64(memeSLO-pass.rep.P99) / float64(r.rep.P99-pass.rep.P99)
		return (lo + f*(hi-lo)) / 1000
	}
	return float64(pass.rep.RPSx1000) / 1000
}
