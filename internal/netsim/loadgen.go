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
// any byte-stream transport. Write's data stays the caller's: the
// caller leaves it unchanged until cb runs.
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
	// Request builds request seq for a client. The swarm writes it
	// before Request is called again and never modifies it, adding
	// Connection: close when KeepAlive is off.
	Request func(client, seq int) *httpx.Request
	// OnResponse, when set, observes each completed response (e.g. for
	// body checksumming in determinism tests). resp, its Header and its
	// Body are the client's and valid only during the call: the client
	// parses its next response into them.
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

	clients   []*lgClient
	lat       []int64 // per (client*PerClient+seq); -1 = not completed
	bytes     int64
	errors    int
	retries   int
	accounted int
	total     int
	finished  bool
	done      func(LoadReport)
}

// account marks one (client, seq) as finally resolved — completed or
// failed. The run finishes when every request is accounted for; it then
// closes every client's connection, so a finished swarm leaves no idle
// keep-alive connection behind on the server, and after done kills its
// context, so the simulator stops scanning it.
func (r *swarmRun) account() {
	r.accounted++
	if r.accounted >= r.total && !r.finished {
		r.finished = true
		for _, c := range r.clients {
			c.teardownConn()
		}
		r.done(r.report())
		r.sim.KillCtx(r.ctx)
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

	conn    *lgConn
	dialing bool
	refused int // refused attempts of the dial in progress
	reading bool
	dead    bool
	buf     []byte
	resp    httpx.Response        // the response being parsed
	arriveH func(seq any)         // arriveAt, bound once
	dialedH func(Conn, abi.Errno) // dialed, bound once

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
	if total == 0 {
		done(LoadReport{})
		return
	}
	run := &swarmRun{
		cfg:     s,
		sim:     sim,
		ctx:     sim.NewCtx("loadgen"),
		dial:    dial,
		startNs: sim.Now(),
		clients: make([]*lgClient, 0, s.Clients),
		lat:     make([]int64, total),
		total:   total,
		done:    done,
	}
	for i := range run.lat {
		run.lat[i] = -1
	}
	for i := 0; i < s.Clients; i++ {
		c := &lgClient{
			run:    run,
			id:     i,
			rng:    lgRand{s: s.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15},
			sendNs: make([]int64, s.PerClient),
		}
		c.arriveH, c.dialedH = c.arriveAt, c.dialed
		run.clients = append(run.clients, c)
		if s.OpenLoop {
			// Pre-generate the whole arrival schedule.
			t := c.rng.gap(s.MeanGapNs)
			for seq := 0; seq < s.PerClient; seq++ {
				c.postArrival(t, seq)
				t += c.rng.gap(s.MeanGapNs)
			}
		} else {
			c.postArrival(c.rng.gap(s.MeanGapNs), 0)
		}
	}
}

// postArrival schedules request seq's arrival after delay, as one
// event with the client's bound handler (a seq below 256 boxes without
// allocating).
func (c *lgClient) postArrival(delay int64, seq int) {
	c.run.sim.PostDelayArg(c.run.ctx, delay, c.arriveH, seq)
}

func (c *lgClient) arriveAt(seq any) { c.arrive(seq.(int)) }

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
		// Pop by sliding the rest down, so the queue keeps its array.
		seq := c.sendq[0]
		c.sendq = c.sendq[:copy(c.sendq, c.sendq[1:])]
		c.send(seq)
	}
}

// ensureDial starts a dial unless one is in progress. Its attempts
// run on the client's bound handlers, so a dial allocates nothing of
// its own.
func (c *lgClient) ensureDial() {
	if c.dialing {
		return
	}
	c.dialing, c.refused = true, 0
	c.run.dial(c.dialedH)
}

// redial is a refused dial's retry event; its argument is the client.
func redial(c any) {
	cl := c.(*lgClient)
	cl.run.dial(cl.dialedH)
}

// dialed completes one dial attempt.
func (c *lgClient) dialed(conn Conn, err abi.Errno) {
	if err != abi.OK {
		// Refused (listener backlog full) — retry after a seeded
		// backoff, giving the server room to drain.
		c.refused++
		c.run.retries++
		if c.refused > lgDialRetries {
			c.dialing = false
			c.die()
			return
		}
		c.run.sim.PostDelayArg(c.run.ctx, lgRetryFloorNs+c.rng.gap(c.run.cfg.MeanGapNs/4+1), redial, c)
		return
	}
	c.dialing = false
	c.conn = newLgConn(c, conn)
	c.buf = nil
	c.flushSendq()
}

// lgConn is one of a client's connections, with its read and write
// completions bound once per dial: a completion from before a redial
// finds its lgConn no longer the client's. out is the request buffer,
// reused while no write is in flight.
type lgConn struct {
	c       *lgClient
	conn    Conn
	onRead  func([]byte, abi.Errno)
	onWrite func(int, abi.Errno)
	out     []byte
	writing int // writes whose completions have not run
}

func newLgConn(c *lgClient, conn Conn) *lgConn {
	lc := &lgConn{c: c, conn: conn}
	lc.onRead, lc.onWrite = lc.read, lc.written
	return lc
}

func (c *lgClient) send(seq int) {
	req := c.run.cfg.Request(c.id, seq)
	lc := c.conn
	var raw []byte
	if lc.writing == 0 {
		raw = lc.out[:0]
	}
	raw = httpx.AppendRequest(raw, req, !c.run.cfg.KeepAlive)
	if lc.writing == 0 {
		lc.out = raw
	}
	c.sent++
	lc.writing++
	lc.conn.Write(raw, lc.onWrite)
	c.ensureReading()
}

// written completes one write on lc.
func (lc *lgConn) written(_ int, err abi.Errno) {
	lc.writing--
	if err != abi.OK && lc == lc.c.conn {
		lc.c.connBroken()
	}
}

// ensureReading runs the response pump: accumulate bytes, parse every
// complete response, stop when nothing is outstanding.
func (c *lgClient) ensureReading() {
	if c.reading || c.conn == nil || c.recv >= c.sent {
		return
	}
	c.reading = true
	c.conn.conn.Read(lgReadChunk, c.conn.onRead)
}

// read completes one pump read on lc, and reads again while responses
// are owed.
func (lc *lgConn) read(b []byte, err abi.Errno) {
	c := lc.c
	if lc != c.conn {
		return // stale pump from before a redial
	}
	c.reading = false
	if err != abi.OK {
		c.connBroken()
		return
	}
	if len(b) == 0 {
		c.drainResponses(true)
		if lc == c.conn {
			c.onEOF()
		}
		return
	}
	c.buf = append(c.buf, b...)
	c.drainResponses(false)
	if lc == c.conn && c.recv < c.sent {
		c.reading = true
		lc.conn.Read(lgReadChunk, lc.onRead)
	}
}

// drainResponses completes every whole response in the buffer, parsed
// into c.resp, then compacts the buffer once. A response's Body aliases
// the buffer, so compacting before its completion would show OnResponse
// the next pipelined response's bytes.
func (c *lgClient) drainResponses(eof bool) {
	conn, off := c.conn, 0
	for c.recv < c.sent {
		rest, err := c.resp.ParseBuffered(c.buf[off:], eof)
		if err == abi.EAGAIN {
			break
		}
		if err != abi.OK {
			c.connBroken()
			return
		}
		off = len(c.buf) - len(rest)
		c.complete(&c.resp)
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
		c.postArrival(c.rng.gap(c.run.cfg.MeanGapNs), c.sent)
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
		c.conn.conn.Close()
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
		c.postArrival(c.rng.gap(c.run.cfg.MeanGapNs), c.sent)
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
