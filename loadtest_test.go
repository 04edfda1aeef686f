package browsix_test

import (
	"archive/zip"
	"bytes"
	"crypto/sha1"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"

	browsix "repro"
	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/httpx"
	"repro/internal/meme"
	"repro/internal/netsim"
	"repro/internal/posix"
	"repro/internal/rt"
)

// Load tests for the event-driven HTTP server: a deterministic client
// swarm drives the meme server through kernel-level connections, and the
// serial one-request-per-connection server is the ablation baseline.

// bootMemeLoad boots an instance with the meme server staged. A sync
// transport restages the server as a wasm executable so its syscalls
// travel the synchronous path.
func bootMemeLoad(t testing.TB, tr transport) *browsix.Instance {
	t.Helper()
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	browsix.InstallMeme(in, 40_000_000)
	if tr != async {
		if err := in.FS().WriteFile("usr/bin/meme-server", rt.Artifact("meme-server", rt.WasmKind), 0o644); err != nil {
			t.Fatalf("staging meme-server: %v", err)
		}
	}
	return in
}

// healthSwarm builds the standard saturation workload: every request is
// GET /healthz (no handler CPU), so syscall economics dominate and the
// event loop's fewer-syscalls-per-request advantage is what's measured.
func healthSwarm(clients, perClient int, keepAlive bool) *netsim.Swarm {
	return &netsim.Swarm{
		Clients:   clients,
		PerClient: perClient,
		Seed:      0xb10c_ab1e,
		MeanGapNs: 2_000_000,
		KeepAlive: keepAlive,
		Request: func(client, seq int) *httpx.Request {
			return &httpx.Request{Method: "GET", Path: "/healthz"}
		},
	}
}

// TestMemeServerLoadGuard is the CI throughput guard: under a
// 1000-client keep-alive swarm the event-loop server must complete at
// least 2x the requests/sec (virtual time) of the serial
// Connection-close baseline.
func TestMemeServerLoadGuard(t *testing.T) {
	run := func(serial bool, s *netsim.Swarm) netsim.LoadReport {
		in := bootMemeLoad(t, ring)
		var args []string
		if serial {
			args = append(args, "-serial")
		}
		in.StartMemeServerArgs(args...)
		bad := 0
		s.OnResponse = func(_, _ int, resp *httpx.Response) {
			if resp.Status != 200 || string(resp.Body) != "ok" {
				bad++
			}
		}
		rep := browsix.RunSwarm(in, s, meme.Port)
		if bad != 0 {
			t.Errorf("serial=%v: %d responses were not 200 ok", serial, bad)
		}
		return rep
	}
	// The event loop carries the full 1000-client keep-alive swarm, open
	// loop so backlogged clients pipeline onto their connections (the
	// batching the event loop is built to exploit). The serial baseline
	// cannot even accept that workload — Connection: close forbids
	// pipelining and its backlog-16 funnel collapses into refusal storms
	// at 1000 clients — so it gets a small closed-loop swarm it serves
	// cleanly: generous to the baseline, since RPS under saturation
	// measures server capacity either way.
	evSwarm := healthSwarm(1000, 3, true)
	evSwarm.OpenLoop = true
	serSwarm := healthSwarm(32, 3, false)
	serSwarm.MeanGapNs = 20_000_000
	ev := run(false, evSwarm)
	ser := run(true, serSwarm)
	t.Logf("event-loop: %+v", ev)
	t.Logf("serial:     %+v", ser)
	if ev.Requests != 3000 || ev.Errors != 0 {
		t.Errorf("event loop dropped requests: %+v", ev)
	}
	if ser.Requests != 96 || ser.Errors != 0 {
		t.Errorf("serial baseline dropped requests: %+v", ser)
	}
	if ser.RPSx1000 <= 0 {
		t.Fatalf("serial baseline measured nothing: %+v", ser)
	}
	if ev.RPSx1000 < 2*ser.RPSx1000 {
		t.Errorf("event loop %.1f req/s < 2x serial %.1f req/s",
			float64(ev.RPSx1000)/1000, float64(ser.RPSx1000)/1000)
	}
}

// TestSwarmRoundsLeaveNoServerConns: a finished swarm closes its
// keep-alive connections, so once the simulation settles the server
// holds none of them. Two rounds against one server leave its
// descriptor table the same size, with no accepted connection in it.
func TestSwarmRoundsLeaveNoServerConns(t *testing.T) {
	in := bootMemeLoad(t, async)
	pid := in.StartMemeServerArgs()
	task := in.Kernel.Task(pid)
	var sizes []int
	for round := 0; round < 2; round++ {
		s := healthSwarm(32, 4, true)
		s.OpenLoop = true
		s.Seed += uint64(round)
		if rep := browsix.RunSwarm(in, s, meme.Port); rep.Requests != 128 || rep.Errors != 0 {
			t.Fatalf("round %d: %+v", round, rep)
		}
		in.Run()
		fds := task.Fds()
		for _, fd := range fds {
			if task.FdPath(fd) == "socket:conn" {
				t.Errorf("round %d: server still holds client connection fd %d (fds %v)", round, fd, fds)
			}
		}
		sizes = append(sizes, len(fds))
	}
	if sizes[0] != sizes[1] {
		t.Errorf("server descriptor count grew across rounds: %v", sizes)
	}
}

// TestSwarmRoundAllocsPerRequest bounds the host allocations of a warm
// keep-alive swarm round against the meme server: 32 open-loop clients
// with 16 GET /healthz each on one connection apiece, as a benchmark
// round. Per request, what is left is the request the swarm's Request
// builds and its copy into the socket, the response write's clone, and
// each connection's dial and client, amortized over its requests: a
// poll set moves to the kernel and back uncopied, as do a read's bytes,
// and the server's connection records, buffers and remembered heads
// outlive their connections. The bound is per request, averaged over a
// round: 5.04 measured on linux/amd64 (go1.24), plus about 12% for
// allocator and map-growth differences between Go releases.
func TestSwarmRoundAllocsPerRequest(t *testing.T) {
	const bound = 5.65
	perReq := swarmRoundAllocs(t, async, healthSwarm(32, 16, true))
	if perReq > bound {
		t.Fatalf("warm keep-alive swarm round: %.2f allocations per request, want <= %v", perReq, bound)
	}
}

// TestSyncSwarmRoundAllocsPerRequest is TestSwarmRoundAllocsPerRequest
// with the server restaged as a wasm executable, so its calls travel
// the synchronous heap codec on the ring: a poll's records are staged in
// the heap's scratch and decoded into the call record's own array, and
// its revents written back in place. Bound: 9.92 measured (15.80
// before the records moved), plus about 12%.
func TestSyncSwarmRoundAllocsPerRequest(t *testing.T) {
	const bound = 11.1
	perReq := swarmRoundAllocs(t, ring, healthSwarm(32, 16, true))
	if perReq > bound {
		t.Fatalf("warm keep-alive swarm round, sync server: %.2f allocations per request, want <= %v", perReq, bound)
	}
}

// TestMixedRouteSwarmAllocsPerRequest is TestSwarmRoundAllocsPerRequest
// with meme-swarm's route mix: one request in ten, drawn from a seeded
// stream, is GET /api/templates. The listing is built once for the
// server's template set, and every connection's request and response
// heads switch between two shapes each of which is remembered, so the
// templates requests cost little more than healthz ones. Bound: 5.26
// measured (7.69 with one listing built per request), plus about 12%.
func TestMixedRouteSwarmAllocsPerRequest(t *testing.T) {
	const bound = 5.9
	s := healthSwarm(32, 16, true)
	templates := make([]bool, s.Clients*s.PerClient)
	r := uint64(0x90_10)
	for i := range templates {
		r = r*6364136223846793005 + 1442695040888963407
		templates[i] = (r>>33)%10 == 0
	}
	s.Request = func(client, seq int) *httpx.Request {
		if templates[client*s.PerClient+seq] {
			return &httpx.Request{Method: "GET", Path: "/api/templates"}
		}
		return &httpx.Request{Method: "GET", Path: "/healthz"}
	}
	perReq := swarmRoundAllocs(t, async, s)
	if perReq > bound {
		t.Fatalf("warm keep-alive 90/10 healthz/templates swarm round: %.2f allocations per request, want <= %v", perReq, bound)
	}
}

// swarmRoundAllocs runs s open loop as three rounds against one meme
// server on tr, seeded 1 to 3, and returns the allocations per request
// of the last two: the first warms the server's buffers and the pools.
// Every round must complete every request with a 200.
func swarmRoundAllocs(t *testing.T, tr transport, s *netsim.Swarm) float64 {
	t.Helper()
	in := bootMemeLoad(t, tr)
	in.StartMemeServerArgs()
	want := s.Clients * s.PerClient
	s.OpenLoop, s.MeanGapNs = true, 128_000_000
	bad := 0
	s.OnResponse = func(_, _ int, resp *httpx.Response) {
		if resp.Status != 200 {
			bad++
		}
	}
	round := func(seed uint64) netsim.LoadReport {
		s.Seed = seed
		rep := browsix.RunSwarm(in, s, meme.Port)
		if rep.Requests != want || rep.Errors != 0 || bad != 0 {
			t.Fatalf("round %d: %+v, %d responses not 200", seed, rep, bad)
		}
		in.Run()
		return rep
	}
	round(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	requests := round(2).Requests + round(3).Requests
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / float64(requests)
	t.Logf("%s: %.2f allocations per request", tr, perReq)
	return perReq
}

// TestSwarmRoundsLeaveNoLoadgenCtxs: a finished swarm kills its load
// generator's context, so five rounds against one server leave as many
// live simulator contexts as one round.
func TestSwarmRoundsLeaveNoLoadgenCtxs(t *testing.T) {
	in := bootMemeLoad(t, async)
	in.StartMemeServerArgs()
	var live []int
	for round := 0; round < 5; round++ {
		s := healthSwarm(8, 4, true)
		s.Seed += uint64(round)
		if rep := browsix.RunSwarm(in, s, meme.Port); rep.Requests != 32 || rep.Errors != 0 {
			t.Fatalf("round %d: %+v", round, rep)
		}
		in.Run()
		live = append(live, strings.Count(in.Sim.Dump(), "\n")) // one line per live context
	}
	if live[4] != live[0] {
		t.Errorf("live contexts per round %v; want the first round's count throughout", live)
	}
}

// memeMixSwarm exercises all three routes (templates listing, healthz,
// CPU-heavy meme generation) with keep-alive reuse, recording every
// response body hash by (client, seq) for cross-run comparison.
func memeMixSwarm(outcomes [][]string) *netsim.Swarm {
	return &netsim.Swarm{
		Clients:   8,
		PerClient: 3,
		Seed:      77,
		MeanGapNs: 5_000_000,
		KeepAlive: true,
		Request: func(client, seq int) *httpx.Request {
			switch seq {
			case 0:
				return &httpx.Request{Method: "GET", Path: "/api/templates"}
			case 1:
				body := fmt.Sprintf(`{"template":"doge","top":"client %d","bottom":"seq %d"}`, client, seq)
				return &httpx.Request{Method: "POST", Path: "/api/meme", Body: []byte(body)}
			default:
				return &httpx.Request{Method: "GET", Path: "/healthz"}
			}
		},
		OnResponse: func(client, seq int, resp *httpx.Response) {
			outcomes[client][seq] = fmt.Sprintf("%d:%x", resp.Status, sha1.Sum(resp.Body))
		},
	}
}

// TestSwarmDeterminismAcrossTransports pins the determinism contract:
// per transport, repeated runs produce bit-equal load reports (every
// field, percentiles included); across transports, every (client, seq)
// response is byte-identical — same status, same body — even though
// virtual timings (and so percentiles) legitimately differ.
func TestSwarmDeterminismAcrossTransports(t *testing.T) {
	type result struct {
		rep      netsim.LoadReport
		outcomes [][]string
	}
	run := func(tr transport) result {
		in := bootMemeLoad(t, tr)
		in.StartMemeServerArgs()
		outcomes := make([][]string, 8)
		for i := range outcomes {
			outcomes[i] = make([]string, 3)
		}
		s := memeMixSwarm(outcomes)
		rep := browsix.RunSwarm(in, s, meme.Port)
		return result{rep, outcomes}
	}
	var ref result
	for _, v := range variants(transports) {
		a, b := run(v.tr), run(v.tr)
		if a.rep != b.rep {
			t.Errorf("%s: repeated runs diverged\nrun1: %+v\nrun2: %+v", v, a.rep, b.rep)
		}
		if a.rep.Requests != 24 || a.rep.Errors != 0 {
			t.Errorf("%s: %+v", v, a.rep)
		}
		if v.tr == async {
			ref = a
			continue
		}
		for c := range a.outcomes {
			for s := range a.outcomes[c] {
				if a.outcomes[c][s] != ref.outcomes[c][s] {
					t.Errorf("%s client %d seq %d: %s != %s (async)",
						v, c, s, a.outcomes[c][s], ref.outcomes[c][s])
				}
			}
		}
	}
}

// memeImageZip packs the meme server's whole /usr subtree — executable,
// templates, font — into one deterministic archive every tenant mounts
// read-only, so the fleet's content-addressed tier can collapse the
// tenants' identical base image to one copy.
func memeImageZip(t testing.TB) []byte {
	t.Helper()
	files := meme.StageFiles()
	files["/usr/bin/meme-server"] = rt.Artifact("meme-server", rt.GopherJSKind)
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, p := range paths {
		w, err := zw.Create(strings.TrimPrefix(p, "/usr/"))
		if err != nil {
			t.Fatalf("zip create: %v", err)
		}
		if _, err := w.Write(files[p]); err != nil {
			t.Fatalf("zip write: %v", err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("zip close: %v", err)
	}
	return buf.Bytes()
}

// TestMemeFleetTenantSwarms composes the load harness with the fleet:
// N meme-server tenants each serve their own swarm, sharded across host
// workers, and — the tenants being identical — every tenant's load
// report must come out bit-equal. The shared pool still dedups the
// tenants' identical binaries and assets underneath the serving.
func TestMemeFleetTenantSwarms(t *testing.T) {
	const tenants = 4
	archive := memeImageZip(t)
	reports := make([]netsim.LoadReport, tenants)
	fl := &browsix.Fleet{Workers: 2}
	st := fl.RunTenants(browsix.TenantLoad{
		Tenants: tenants,
		Setup: func(i int, in *browsix.Instance) {
			zfs, err := fs.NewZipFS(archive)
			if err != nil {
				t.Errorf("zipfs: %v", err)
				return
			}
			in.VFS.Mount("/usr", zfs)
		},
		Workload: func(i int, in *browsix.Instance) {
			pid := in.StartMemeServerArgs()
			s := healthSwarm(50, 2, true)
			reports[i] = browsix.RunSwarm(in, s, meme.Port)
			in.Kill(pid, abi.SIGKILL)
			in.Run()
		},
	})
	if st.Tenants != tenants {
		t.Fatalf("harness ran %d tenants", st.Tenants)
	}
	if reports[0].Requests != 100 || reports[0].Errors != 0 {
		t.Errorf("tenant 0 report: %+v", reports[0])
	}
	for i := 1; i < tenants; i++ {
		if reports[i] != reports[0] {
			t.Errorf("tenant %d report diverged:\n0: %+v\n%d: %+v", i, reports[0], i, reports[i])
		}
	}
	if st.DedupFactor < 2 {
		t.Errorf("identical meme tenants dedup at %.2fx, want >= 2", st.DedupFactor)
	}
}

// ---------------------------------------------------------------------------
// Socket lifecycle edges, differentially across transports.
// ---------------------------------------------------------------------------

const sockEdgePort = 7070

func init() {
	// x-sockedge exercises the socket edge cases from inside a process —
	// non-blocking accept on an empty backlog, poll probe and timeout,
	// park-until-connect, batched accept of a burst, half-close drain to
	// EOF, and non-blocking read/write EAGAIN — printing every outcome so
	// the transports can be compared byte for byte.
	posix.Register(&posix.Program{Name: "x-sockedge", Main: func(p posix.Proc) int {
		out := func(f string, a ...any) { posix.Fprintf(p, abi.Stdout, f, a...) }
		lfd, err := p.Socket()
		if err != abi.OK {
			return 1
		}
		if p.Bind(lfd, sockEdgePort) != abi.OK {
			return 2
		}
		if p.Listen(lfd, 2) != abi.OK {
			return 3
		}
		if p.Setfl(lfd, abi.O_NONBLOCK) != abi.OK {
			return 4
		}
		if _, err := p.Accept(lfd); err != abi.EAGAIN {
			return 5
		}
		out("accept-empty=%d\n", abi.EAGAIN)
		fds := []abi.Pollfd{{Fd: int32(lfd), Events: abi.POLLIN}}
		n, _ := p.Poll(fds, 0)
		out("probe-ready=%d\n", n)
		n, _ = p.Poll(fds, 2_000_000)
		out("timed-ready=%d\n", n)
		// Park until the test side's 4-dial burst (backlog 2: two queue,
		// two are refused on the dialer's side).
		n, _ = p.Poll(fds, -1)
		out("wake-ready=%d revents=%d\n", n, fds[0].Revents)
		got, err := p.AcceptBatch(lfd, 8)
		if err != abi.OK {
			return 6
		}
		out("batch=%d\n", len(got))
		if len(got) != 2 {
			return 7
		}
		// Peer 0 wrote then closed: drain the tail bytes, then EOF.
		b, err := p.Read(got[0], 64)
		out("read0=%q err=%d\n", string(b), err)
		b, err = p.Read(got[0], 64)
		out("read0-eof len=%d err=%d\n", len(b), err)
		// Peer 1 wrote and stays open: drain, then non-blocking EAGAIN,
		// then fill the send pipe — short write, then EAGAIN.
		b, err = p.Read(got[1], 64)
		out("read1=%q err=%d\n", string(b), err)
		_, err = p.Read(got[1], 64)
		out("read1-again=%d\n", err)
		nw, err := p.Write(got[1], make([]byte, core.PipeCap+4096))
		out("write1=%d err=%d\n", nw, err)
		nw, err = p.Write(got[1], []byte("x"))
		out("write1-full=%d err=%d\n", nw, err)
		p.Close(got[0])
		p.Close(got[1])
		p.Close(lfd)
		return 0
	}})
}

// runSockEdge runs the probe under one transport and returns its stdout
// plus the dial outcomes observed on the kernel (client) side.
func runSockEdge(t *testing.T, tr transport) (string, []abi.Errno) {
	t.Helper()
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	kind := rt.GopherJSKind
	if tr != async {
		kind = rt.WasmKind
	}
	if err := in.FS().WriteFile("usr/bin/sockedge", rt.Artifact("x-sockedge", kind), 0o644); err != nil {
		t.Fatalf("staging sockedge: %v", err)
	}
	var dialErrs []abi.Errno
	in.OnListen(sockEdgePort, func(int) {
		// Fire the burst 500ms after listen: far past the probe's
		// pre-park steps on every transport, and atomic in virtual time
		// so backlog occupancy is identical everywhere.
		in.Sim.PostDelay(in.Browser.Main.Sched(), 500_000_000, func() {
			for i := 0; i < 4; i++ {
				i := i
				in.Kernel.Connect(sockEdgePort, func(c *core.KernelConn, err abi.Errno) {
					dialErrs = append(dialErrs, err)
					if err != abi.OK {
						return
					}
					switch i {
					case 0:
						c.Write([]byte("alpha"), func(int, abi.Errno) {})
						c.Close()
					case 1:
						c.Write([]byte("beta"), func(int, abi.Errno) {})
					}
				})
			}
		})
	})
	proc, err := in.Start(browsix.Spec{Argv: []string{"/usr/bin/sockedge"}})
	if err != nil {
		t.Fatalf("start sockedge: %v", err)
	}
	code, werr := proc.Wait()
	if werr != nil || code != 0 {
		stdout, _ := io.ReadAll(proc.Stdout())
		stderr, _ := io.ReadAll(proc.Stderr())
		t.Fatalf("sockedge exited %d (%v)\nstdout: %s\nstderr: %s", code, werr, stdout, stderr)
	}
	stdout, _ := io.ReadAll(proc.Stdout())
	return string(stdout), dialErrs
}

// TestSocketEdgesAcrossTransports runs the probe under the async and
// ring transports: every edge-case outcome — printed by the probe and
// observed by the dialers — must be byte-identical.
func TestSocketEdgesAcrossTransports(t *testing.T) {
	want := fmt.Sprintf(
		"accept-empty=%d\nprobe-ready=0\ntimed-ready=0\n"+
			"wake-ready=1 revents=%d\nbatch=2\n"+
			"read0=%q err=0\nread0-eof len=0 err=0\n"+
			"read1=%q err=0\nread1-again=%d\n"+
			"write1=%d err=0\nwrite1-full=0 err=%d\n",
		abi.EAGAIN, abi.POLLIN, "alpha", "beta", abi.EAGAIN, core.PipeCap, abi.EAGAIN)
	wantDials := []abi.Errno{abi.OK, abi.OK, abi.ECONNREFUSED, abi.ECONNREFUSED}
	for _, v := range variants(transports) {
		out, dials := runSockEdge(t, v.tr)
		if out != want {
			t.Errorf("%s stdout:\n%s\nwant:\n%s", v, out, want)
		}
		if len(dials) != len(wantDials) {
			t.Errorf("%s: dial outcomes %v", v, dials)
			continue
		}
		for i, e := range dials {
			if e != wantDials[i] {
				t.Errorf("%s: dial %d: %v, want %v", v, i, e, wantDials[i])
			}
		}
	}
}

// TestChunkedNegativeSizeRejected: a chunked request whose chunk-size
// line is -1 gets a 400 and a closed connection — it must not panic the
// host — and the meme server keeps serving new connections.
func TestChunkedNegativeSizeRejected(t *testing.T) {
	in := bootMemeLoad(t, async)
	in.StartMemeServerArgs()
	exchange := func(raw string) *httpx.Response {
		var got []byte
		var resp *httpx.Response
		done := false
		in.Main(func() {
			in.Kernel.Connect(meme.Port, func(c *core.KernelConn, err abi.Errno) {
				if err != abi.OK {
					t.Errorf("dial: %v", err)
					done = true
					return
				}
				c.Write([]byte(raw), func(int, abi.Errno) {})
				var read func()
				read = func() {
					c.Read(4096, func(b []byte, err abi.Errno) {
						got = append(got, b...)
						if r, _, perr := httpx.ParseBufferedResponse(got, false); perr == abi.OK {
							resp = r
						}
						if resp != nil || err != abi.OK || len(b) == 0 {
							c.Close()
							done = true
							return
						}
						read()
					})
				}
				read()
			})
		})
		if !in.RunUntil(func() bool { return done }) {
			t.Fatalf("exchange %q never finished; read %q", raw, got)
		}
		return resp
	}
	bad := exchange("POST /api/meme HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n-1\r\nx\r\n0\r\n\r\n")
	if bad == nil || bad.Status != 400 {
		t.Fatalf("negative chunk size: response %+v, want 400", bad)
	}
	ok := exchange("GET /healthz HTTP/1.1\r\n\r\n")
	if ok == nil || ok.Status != 200 || string(ok.Body) != "ok" {
		t.Fatalf("server stopped serving after the bad request: %+v", ok)
	}
}
