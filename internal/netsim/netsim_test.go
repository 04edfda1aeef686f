package netsim

import (
	"testing"

	"repro/internal/sched"
)

func newNet() (*sched.Sim, *sched.Ctx, *Net) {
	sim := sched.New()
	sim.MaxSteps = 100_000
	browserCtx := sim.NewCtx("browser")
	return sim, browserCtx, New(sim)
}

func TestFetchLatencyModel(t *testing.T) {
	sim, browserCtx, net := newNet()
	files := map[string][]byte{"/a.sty": make([]byte, 10_000)}
	net.AddHost(FileHost("cdn", 30_000_000, 10, files)) // 30ms RTT, 10ns/B

	var deliveredAt int64
	var status int
	sim.Post(browserCtx, 0, func() {
		net.Fetch("cdn", Request{Method: "GET", Path: "/a.sty"}, func(r Response) {
			status = r.Status
			deliveredAt = browserCtx.Now()
		})
	})
	sim.Run()
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	// At least a full RTT plus body transfer (10k * 10ns = 100us).
	if deliveredAt < 30_000_000+100_000 {
		t.Fatalf("delivered at %dus, faster than the network allows", deliveredAt/1000)
	}
}

func TestFetch404(t *testing.T) {
	sim, browserCtx, net := newNet()
	net.AddHost(FileHost("cdn", 1_000_000, 1, map[string][]byte{}))
	status := -1
	sim.Post(browserCtx, 0, func() {
		net.Fetch("cdn", Request{Path: "/missing"}, func(r Response) { status = r.Status })
	})
	sim.Run()
	if status != 404 {
		t.Fatalf("status = %d", status)
	}
}

func TestOfflineAndUnknownHost(t *testing.T) {
	sim, browserCtx, net := newNet()
	net.AddHost(FileHost("cdn", 1_000_000, 1, map[string][]byte{"/x": {1}}))
	var statuses []int
	sim.Post(browserCtx, 0, func() {
		net.Fetch("nowhere", Request{Path: "/x"}, func(r Response) { statuses = append(statuses, r.Status) })
	})
	sim.Run()
	net.Offline = true
	sim.Post(browserCtx, browserCtx.Now(), func() {
		net.Fetch("cdn", Request{Path: "/x"}, func(r Response) { statuses = append(statuses, r.Status) })
	})
	sim.Run()
	if len(statuses) != 2 || statuses[0] != 0 || statuses[1] != 0 {
		t.Fatalf("statuses = %v, want [0 0]", statuses)
	}
}

func TestHostRequestCounting(t *testing.T) {
	sim, browserCtx, net := newNet()
	h := net.AddHost(FileHost("cdn", 1_000_000, 1, map[string][]byte{"/x": {1}}))
	sim.Post(browserCtx, 0, func() {
		net.Fetch("cdn", Request{Path: "/x"}, func(Response) {})
		net.Fetch("cdn", Request{Path: "/x"}, func(Response) {})
	})
	sim.Run()
	if h.Requests != 2 {
		t.Fatalf("requests = %d", h.Requests)
	}
}

func TestFSFetcherAdapter(t *testing.T) {
	sim, browserCtx, net := newNet()
	net.AddHost(FileHost("texlive", 5_000_000, 2, map[string][]byte{
		"/tree/sty/a.sty": []byte("content"),
	}))
	f := &FSFetcher{Net: net, HostNm: "texlive", Prefix: "/tree"}
	var body []byte
	var status int
	sim.Post(browserCtx, 0, func() {
		f.Fetch("/sty/a.sty", func(b []byte, s int) { body, status = b, s })
	})
	sim.Run()
	if status != 200 || string(body) != "content" {
		t.Fatalf("fetch: %d %q", status, body)
	}
}

// TestFSFetcherRangeRequest: FetchRange travels as a standard Range
// header; FileHost answers 206 with just the slice, so the downlink
// cost (and first-byte latency) scales with the window, not the body.
func TestFSFetcherRangeRequest(t *testing.T) {
	body := make([]byte, 100_000)
	for i := range body {
		body[i] = byte(i)
	}
	sim, browserCtx, net := newNet()
	net.AddHost(FileHost("texlive", 5_000_000, 2, map[string][]byte{
		"/tree/big.pfb": body,
	}))
	f := &FSFetcher{Net: net, HostNm: "texlive", Prefix: "/tree"}
	var got []byte
	var status int
	sim.Post(browserCtx, 0, func() {
		f.FetchRange("/big.pfb", 1000, 64, func(b []byte, s int) { got, status = b, s })
	})
	sim.Run()
	if status != 206 || len(got) != 64 {
		t.Fatalf("range fetch: status=%d len=%d", status, len(got))
	}
	for i, b := range got {
		if b != body[1000+i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	// A range past EOF clamps; a malformed range is 416.
	sim.Post(browserCtx, 0, func() {
		f.FetchRange("/big.pfb", 99_990, 64, func(b []byte, s int) { got, status = b, s })
	})
	sim.Run()
	if status != 206 || len(got) != 10 {
		t.Fatalf("tail range: status=%d len=%d", status, len(got))
	}
}

func TestServerCPUChargedToHostNotBrowser(t *testing.T) {
	sim, browserCtx, net := newNet()
	h := net.AddHost(&Host{
		Name: "worker",
		RTT:  2_000_000,
		Handler: func(h *Host, req Request) Response {
			h.Charge(500_000_000) // 500ms of server work
			return Response{Status: 200}
		},
	})
	var deliveredAt int64
	sim.Post(browserCtx, 0, func() {
		net.Fetch("worker", Request{Path: "/"}, func(Response) { deliveredAt = browserCtx.Now() })
	})
	sim.Run()
	if deliveredAt < 500_000_000 {
		t.Fatalf("response before server work finished: %dms", deliveredAt/1e6)
	}
	_ = h
}

func TestParseByteRange(t *testing.T) {
	cases := []struct {
		spec   string
		size   int64
		lo, hi int64
		ok     bool
	}{
		{"bytes=0-9", 100, 0, 9, true},
		{"bytes=90-199", 100, 90, 99, true}, // hi clamped to size-1
		{"bytes=5-5", 100, 5, 5, true},
		{"bytes=42-", 100, 42, 99, true}, // open-ended suffix
		{"bytes=0-", 1, 0, 0, true},
		{"bytes=5-2", 100, 0, 0, false},     // inverted
		{"bytes=5-2x", 100, 0, 0, false},    // trailing garbage (Sscanf used to pass this)
		{"bytes=x5-9", 100, 0, 0, false},    // leading garbage
		{"bytes=5x-9", 100, 0, 0, false},    // garbage inside lo
		{"bytes=-5", 100, 0, 0, false},      // missing lo (suffix-length form unsupported)
		{"bytes=", 100, 0, 0, false},        // empty spec
		{"bytes=100-200", 100, 0, 0, false}, // lo past end
		{"bytes=0-9", 0, 0, 0, false},       // empty body
		{"bits=0-9", 100, 0, 0, false},      // wrong unit
		{"0-9", 100, 0, 0, false},           // no unit
		{"bytes=1e2-300", 100, 0, 0, false}, // non-decimal
	}
	for _, c := range cases {
		lo, hi, ok := parseByteRange(c.spec, c.size)
		if ok != c.ok || lo != c.lo || hi != c.hi {
			t.Errorf("parseByteRange(%q, %d) = (%d, %d, %v), want (%d, %d, %v)",
				c.spec, c.size, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

func TestFileHostRangeRequests(t *testing.T) {
	sim, browserCtx, net := newNet()
	body := make([]byte, 256)
	for i := range body {
		body[i] = byte(i)
	}
	net.AddHost(FileHost("cdn", 1_000_000, 1, map[string][]byte{"/blob": body}))

	fetch := func(rng string) Response {
		var got Response
		done := false
		sim.Post(browserCtx, 0, func() {
			net.Fetch("cdn", Request{
				Method: "GET", Path: "/blob",
				Header: map[string]string{"Range": rng},
			}, func(r Response) { got = r; done = true })
		})
		sim.Run()
		if !done {
			t.Fatalf("fetch %q never completed", rng)
		}
		return got
	}

	if r := fetch("bytes=16-31"); r.Status != 206 || len(r.Body) != 16 || r.Body[0] != 16 {
		t.Fatalf("closed range: status %d len %d", r.Status, len(r.Body))
	}
	if r := fetch("bytes=240-"); r.Status != 206 || len(r.Body) != 16 || r.Body[0] != 240 {
		t.Fatalf("open-ended range: status %d len %d", r.Status, len(r.Body))
	}
	if r := fetch("bytes=16-8x"); r.Status != 416 {
		t.Fatalf("malformed range served: status %d", r.Status)
	}
}

// FuzzParseByteRange: the Range parser never panics, and any range it
// accepts lies inside the body: 0 <= lo <= hi < size.
func FuzzParseByteRange(f *testing.F) {
	for _, s := range []string{"bytes=0-", "bytes=5-2", "bytes=5-2x", "bytes=-1-3", "bytes=0-99999999999999999999", "bytes=3-9223372036854775807"} {
		f.Add(s, int64(10))
	}
	f.Fuzz(func(t *testing.T, s string, size int64) {
		lo, hi, ok := parseByteRange(s, size)
		if ok && !(0 <= lo && lo <= hi && hi < size) {
			t.Fatalf("parseByteRange(%q, %d) = %d, %d, ok", s, size, lo, hi)
		}
	})
}
