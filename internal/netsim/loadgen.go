package netsim

// The deterministic client swarm: thousands of simulated HTTP clients
// driving an in-Browsix server over kernel-side connections, with seeded
// arrival distributions (open- and closed-loop), HTTP/1.1 keep-alive
// reuse, and per-request virtual-time latency recording. Because every
// gap, arrival, and retry is drawn from a seeded splitmix64 stream and
// all timing is virtual, a swarm run — including its full latency
// percentile report — is bit-identical across repeated runs.

import (
	"sort"

	"repro/internal/abi"
	"repro/internal/httpx"
	"repro/internal/sched"
)

// Conn is one client connection in continuation-passing style. It is
// the shape of core.KernelConn, but kept abstract so swarms can drive
// any byte-stream transport.
type Conn interface {
	Read(n int, cb func([]byte, abi.Errno))
	Write(data []byte, cb func(int, abi.Errno))
	Close()
}

// Dialer opens a fresh connection to the server under test.
type Dialer func(cb func(Conn, abi.Errno))

// Swarm configures a load-generation run.
type Swarm struct {
	// Clients is the number of concurrent simulated clients.
	Clients int
	// PerClient is the number of requests each client issues.
	PerClient int
	// Seed feeds the splitmix64 stream behind every random choice.
	Seed uint64
	// OpenLoop pre-schedules each client's arrival times and fires
	// requests on schedule regardless of completions (pipelining onto
	// the client's keep-alive connection); latency then includes queueing
	// delay. Closed-loop clients wait for each response and think for a
	// gap before the next request.
	OpenLoop bool
	// MeanGapNs is the mean think time (closed loop) or inter-arrival
	// gap (open loop); actual gaps are uniform on [0, 2*mean].
	MeanGapNs int64
	// KeepAlive reuses one connection per client for its whole request
	// sequence. When false (closed loop only — open loop always reuses),
	// every request rides a fresh connection with Connection: close.
	KeepAlive bool
	// Request builds request seq for a client. The swarm adds the
	// Connection header when KeepAlive is off.
	Request func(client, seq int) *httpx.Request
	// OnResponse, when set, observes each completed response (e.g. for
	// body checksumming in determinism tests).
	OnResponse func(client, seq int, resp *httpx.Response)
}

// LoadReport is a swarm run's result. All fields are integers in
// virtual-time nanoseconds so the whole struct compares bit-equal
// across runs.
type LoadReport struct {
	Requests int   // completed responses
	Errors   int   // failed or non-2xx/3xx requests
	Retries  int   // connect attempts refused then retried
	Bytes    int64 // response body bytes received
	// DurationNs spans swarm start to last accounting event.
	DurationNs int64
	// RPSx1000 is completed requests per virtual second, x1000.
	RPSx1000 int64
	// Latency percentiles (nearest-rank) over completed requests.
	P50, P95, P99, Max int64
}

// splitmix64: tiny, seedable, and plenty for arrival jitter.
type lgRand struct{ s uint64 }

func (r *lgRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// gap draws a uniform gap on [0, 2*mean] (mean = mean).
func (r *lgRand) gap(mean int64) int64 {
	if mean <= 0 {
		return 0
	}
	return int64(r.next() % uint64(2*mean+1))
}

const (
	lgReadChunk    = 16 * 1024
	lgDialRetries  = 64
	lgRetryFloorNs = 1000
)

type swarmRun struct {
	cfg     *Swarm
	sim     *sched.Sim
	ctx     *sched.Ctx
	dial    Dialer
	startNs int64

	lat       []int64 // per (client*PerClient+seq); -1 = not completed
	bytes     int64
	errors    int
	retries   int
	accounted int
	total     int
	finished  bool
	done      func(LoadReport)
}

func (r *swarmRun) post(delay int64, fn func()) {
	r.sim.PostDelay(r.ctx, delay, fn)
}

// account marks one (client, seq) as finally resolved — completed or
// failed. The run finishes when every request is accounted for.
func (r *swarmRun) account() {
	r.accounted++
	if r.accounted >= r.total && !r.finished {
		r.finished = true
		r.done(r.report())
	}
}

func (r *swarmRun) report() LoadReport {
	lats := make([]int64, 0, len(r.lat))
	for _, l := range r.lat {
		if l >= 0 {
			lats = append(lats, l)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep := LoadReport{
		Requests:   len(lats),
		Errors:     r.errors,
		Retries:    r.retries,
		Bytes:      r.bytes,
		DurationNs: r.sim.Now() - r.startNs,
	}
	if rep.DurationNs > 0 {
		rep.RPSx1000 = int64(rep.Requests) * 1_000_000_000_000 / rep.DurationNs
	}
	if len(lats) > 0 {
		rep.P50 = pctl(lats, 50)
		rep.P95 = pctl(lats, 95)
		rep.P99 = pctl(lats, 99)
		rep.Max = lats[len(lats)-1]
	}
	return rep
}

// pctl is the nearest-rank percentile of a sorted slice.
func pctl(sorted []int64, p int) int64 {
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}

// lgClient is one simulated client.
type lgClient struct {
	run *swarmRun
	id  int
	rng lgRand

	conn    Conn
	dialing bool
	reading bool
	dead    bool
	buf     []byte

	sendq   []int   // arrived-but-unsent seqs (waiting on a dial)
	sendNs  []int64 // arrival timestamp per seq (latency base)
	arrived int     // open loop: arrivals fired so far
	sent    int     // requests written
	recv    int     // responses completed
	acct    int     // requests finally resolved (completed or failed)
}

// Start launches the swarm against dial on sim. It returns immediately;
// done receives the report (on the swarm's context) once every request
// is accounted for. The caller drives the simulation.
func (s *Swarm) Start(sim *sched.Sim, dial Dialer, done func(LoadReport)) {
	total := s.Clients * s.PerClient
	run := &swarmRun{
		cfg:     s,
		sim:     sim,
		ctx:     sim.NewCtx("loadgen"),
		dial:    dial,
		startNs: sim.Now(),
		lat:     make([]int64, total),
		total:   total,
		done:    done,
	}
	for i := range run.lat {
		run.lat[i] = -1
	}
	if total == 0 {
		done(LoadReport{})
		return
	}
	for i := 0; i < s.Clients; i++ {
		c := &lgClient{
			run:    run,
			id:     i,
			rng:    lgRand{s: s.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15},
			sendNs: make([]int64, s.PerClient),
		}
		if s.OpenLoop {
			// Pre-generate the whole arrival schedule.
			t := c.rng.gap(s.MeanGapNs)
			for seq := 0; seq < s.PerClient; seq++ {
				seq := seq
				run.post(t, func() { c.arrive(seq) })
				t += c.rng.gap(s.MeanGapNs)
			}
		} else {
			run.post(c.rng.gap(s.MeanGapNs), func() { c.arrive(0) })
		}
	}
}

// arrive is the moment request seq is due; latency counts from here.
func (c *lgClient) arrive(seq int) {
	if c.dead {
		c.fail()
		return
	}
	c.arrived++
	c.sendNs[seq] = c.run.sim.Now()
	c.sendq = append(c.sendq, seq)
	c.flushSendq()
}

func (c *lgClient) flushSendq() {
	if c.dead || len(c.sendq) == 0 {
		return
	}
	if c.conn == nil {
		c.ensureDial()
		return
	}
	for len(c.sendq) > 0 && !c.dead && c.conn != nil {
		seq := c.sendq[0]
		c.sendq = c.sendq[1:]
		c.send(seq)
	}
}

func (c *lgClient) ensureDial() {
	if c.dialing {
		return
	}
	c.dialing = true
	attempts := 0
	var try func()
	try = func() {
		c.run.dial(func(conn Conn, err abi.Errno) {
			if err != abi.OK {
				// Refused (listener backlog full) — retry after a
				// seeded backoff, giving the server room to drain.
				attempts++
				c.run.retries++
				if attempts > lgDialRetries {
					c.dialing = false
					c.die()
					return
				}
				c.run.post(lgRetryFloorNs+c.rng.gap(c.run.cfg.MeanGapNs/4+1), try)
				return
			}
			c.dialing = false
			c.conn = conn
			c.buf = nil
			c.flushSendq()
		})
	}
	try()
}

func (c *lgClient) send(seq int) {
	req := c.run.cfg.Request(c.id, seq)
	if !c.run.cfg.KeepAlive {
		if req.Header == nil {
			req.Header = map[string]string{}
		}
		req.Header["Connection"] = "close"
	}
	raw := httpx.WriteRequest(req)
	c.sent++
	conn := c.conn
	conn.Write(raw, func(_ int, err abi.Errno) {
		if err != abi.OK && conn == c.conn {
			c.connBroken()
		}
	})
	c.ensureReading()
}

// ensureReading runs the response pump: accumulate bytes, parse every
// complete response, stop when nothing is outstanding.
func (c *lgClient) ensureReading() {
	if c.reading || c.conn == nil || c.recv >= c.sent {
		return
	}
	c.reading = true
	conn := c.conn
	var loop func()
	loop = func() {
		conn.Read(lgReadChunk, func(b []byte, err abi.Errno) {
			if conn != c.conn {
				return // stale pump from before a redial
			}
			c.reading = false
			if err != abi.OK {
				c.connBroken()
				return
			}
			if len(b) == 0 {
				c.drainResponses(true)
				if conn == c.conn {
					c.onEOF()
				}
				return
			}
			c.buf = append(c.buf, b...)
			c.drainResponses(false)
			if conn == c.conn && c.recv < c.sent {
				c.reading = true
				loop()
			}
		})
	}
	loop()
}

// drainResponses completes every whole response in the buffer, then
// compacts the buffer once. A response's Body aliases the buffer, so
// compacting before its completion would show OnResponse the next
// pipelined response's bytes.
func (c *lgClient) drainResponses(eof bool) {
	conn, off := c.conn, 0
	for c.recv < c.sent {
		resp, rest, err := httpx.ParseBufferedResponse(c.buf[off:], eof)
		if err == abi.EAGAIN {
			break
		}
		if err != abi.OK {
			c.connBroken()
			return
		}
		off = len(c.buf) - len(rest)
		c.complete(resp)
		if c.conn != conn {
			return // the completion tore the connection and its buffer down
		}
	}
	n := copy(c.buf, c.buf[off:])
	c.buf = c.buf[:n]
}

func (c *lgClient) complete(resp *httpx.Response) {
	seq := c.recv
	c.recv++
	c.acct++
	c.run.lat[c.id*c.run.cfg.PerClient+seq] = c.run.sim.Now() - c.sendNs[seq]
	c.run.bytes += int64(len(resp.Body))
	if resp.Status >= 400 {
		c.run.errors++
	}
	if c.run.cfg.OnResponse != nil {
		c.run.cfg.OnResponse(c.id, seq, resp)
	}
	c.run.account()
	if !c.run.cfg.OpenLoop && c.sent < c.run.cfg.PerClient &&
		c.recv == c.sent && len(c.sendq) == 0 && !c.dead {
		if !c.run.cfg.KeepAlive {
			c.teardownConn()
		}
		next := c.sent
		c.run.post(c.rng.gap(c.run.cfg.MeanGapNs), func() { c.arrive(next) })
	}
}

// fail resolves one request as errored (latency excluded from report).
func (c *lgClient) fail() {
	c.acct++
	c.run.errors++
	c.run.account()
}

func (c *lgClient) teardownConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.buf = nil
	c.reading = false
}

// onEOF handles a server-side close: expected after a Connection: close
// exchange, an error if responses were still owed.
func (c *lgClient) onEOF() {
	if c.recv < c.sent {
		c.connBroken()
		return
	}
	c.teardownConn()
}

// connBroken fails every in-flight request and redials for whatever the
// client still owes.
func (c *lgClient) connBroken() {
	if c.dead {
		return
	}
	c.teardownConn()
	for c.recv < c.sent {
		c.recv++
		c.fail()
	}
	if len(c.sendq) > 0 {
		c.flushSendq()
	} else if !c.run.cfg.OpenLoop && c.sent < c.run.cfg.PerClient {
		next := c.sent
		c.run.post(c.rng.gap(c.run.cfg.MeanGapNs), func() { c.arrive(next) })
	}
}

// die gives up on the client (dial retries exhausted): everything not
// yet resolved — queued, in flight, or (closed loop) never to be sent —
// fails now; open-loop arrivals still to fire fail as they arrive.
func (c *lgClient) die() {
	if c.dead {
		return
	}
	c.dead = true
	c.teardownConn()
	c.sendq = nil
	for c.recv < c.sent {
		c.recv++
		c.fail()
	}
	pendingArrivals := 0
	if c.run.cfg.OpenLoop {
		pendingArrivals = c.run.cfg.PerClient - c.arrived
	}
	for c.acct+pendingArrivals < c.run.cfg.PerClient {
		c.fail()
	}
}
