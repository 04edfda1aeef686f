package httpx

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/abi"
)

// The fmt-based writers and the Split/ToLower/ToUpper/Join header
// canonicalizer, kept verbatim as references for the appending codec.

func refSortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func refWriteRequest(r *Request) []byte {
	var sb strings.Builder
	path := r.Path
	if path == "" {
		path = "/"
	}
	fmt.Fprintf(&sb, "%s %s HTTP/1.1\r\n", r.Method, path)
	hdr := map[string]string{"Host": "localhost"}
	for k, v := range r.Header {
		hdr[k] = v
	}
	if len(r.Body) > 0 {
		hdr["Content-Length"] = strconv.Itoa(len(r.Body))
	}
	for _, k := range refSortedKeys(hdr) {
		fmt.Fprintf(&sb, "%s: %s\r\n", k, hdr[k])
	}
	sb.WriteString("\r\n")
	out := append([]byte(sb.String()), r.Body...)
	return out
}

func refWriteResponse(r *Response) []byte {
	var sb strings.Builder
	text := r.StatusText
	if text == "" {
		text = statusText(r.Status)
	}
	fmt.Fprintf(&sb, "HTTP/1.1 %d %s\r\n", r.Status, text)
	hdr := map[string]string{}
	for k, v := range r.Header {
		hdr[k] = v
	}
	chunked := strings.EqualFold(hdr["Transfer-Encoding"], "chunked")
	if !chunked {
		hdr["Content-Length"] = strconv.Itoa(len(r.Body))
	}
	for _, k := range refSortedKeys(hdr) {
		fmt.Fprintf(&sb, "%s: %s\r\n", k, hdr[k])
	}
	sb.WriteString("\r\n")
	if !chunked {
		return append([]byte(sb.String()), r.Body...)
	}
	out := []byte(sb.String())
	const chunkSize = 4096
	for off := 0; off < len(r.Body); off += chunkSize {
		end := off + chunkSize
		if end > len(r.Body) {
			end = len(r.Body)
		}
		out = append(out, []byte(fmt.Sprintf("%x\r\n", end-off))...)
		out = append(out, r.Body[off:end]...)
		out = append(out, '\r', '\n')
	}
	out = append(out, []byte("0\r\n\r\n")...)
	return out
}

func refTextprotoCanon(s string) string {
	parts := strings.Split(strings.ToLower(s), "-")
	for i, p := range parts {
		if p != "" {
			parts[i] = strings.ToUpper(p[:1]) + p[1:]
		}
	}
	return strings.Join(parts, "-")
}

// randHeaders draws a header map that mixes the names the writers
// treat specially (Host, Content-Length, Transfer-Encoding, the empty
// name) with arbitrary ones, more of them than the writers' stack
// array holds.
func randHeaders(rng *rand.Rand) map[string]string {
	if rng.Intn(8) == 0 {
		return nil
	}
	names := []string{"", "Host", "host", "Content-Length", "content-length", "Transfer-Encoding",
		"Content-Type", "Connection", "X-Trace", "Zzz", "A", "ñame", "X-Ünicode"}
	values := []string{"", "localhost", "chunked", "CHUNKED", "keep-alive", "close", "7", "-1",
		"text/plain", "a b c", "ü"}
	h := map[string]string{}
	for n := rng.Intn(14); n > 0; n-- {
		k := names[rng.Intn(len(names))]
		if rng.Intn(4) == 0 {
			k = fmt.Sprintf("X-Rand-%d", rng.Intn(1000))
		}
		h[k] = values[rng.Intn(len(values))]
	}
	return h
}

func randBody(rng *rand.Rand) []byte {
	sizes := []int{0, 0, 1, 2, 100, 4095, 4096, 4097, 3*4096 + 17}
	n := sizes[rng.Intn(len(sizes))]
	if n == 0 && rng.Intn(2) == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestWritersMatchReference: over seeded random header maps and bodies
// the appending writers produce exactly the bytes of the fmt-based ones.
func TestWritersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	reqs := []*Request{
		{Method: "GET"},
		{Method: "GET", Path: "/healthz", Header: map[string]string{}},
		{Method: "POST", Path: "/x", Header: map[string]string{"": "empty name"}, Body: []byte("b")},
		{Method: "GET", Path: "/", Header: map[string]string{"Host": "example"}},
		{Method: "PUT", Path: "/", Header: map[string]string{"Content-Length": "99"}, Body: []byte("four")},
		{Method: "PUT", Path: "/", Header: map[string]string{"Content-Length": "99"}},
	}
	resps := []*Response{
		{Status: 200},
		{Status: 200, Body: []byte("ok")},
		{Status: 404, Header: map[string]string{"": "", "Content-Length": "1"}, Body: []byte("not found")},
		{Status: 200, Header: map[string]string{"Transfer-Encoding": "chunked"}, Body: bytes.Repeat([]byte("x"), 3*4096+5)},
		{Status: 200, Header: map[string]string{"Transfer-Encoding": "Chunked", "Content-Length": "3"}},
		{Status: 299},
		{Status: 0},
		{Status: -7, StatusText: "Odd"},
	}
	for i := 0; i < 2000; i++ {
		methods := []string{"GET", "POST", "", "M E"}
		paths := []string{"", "/", "/api/templates", "/a b"}
		reqs = append(reqs, &Request{
			Method: methods[rng.Intn(len(methods))], Path: paths[rng.Intn(len(paths))],
			Header: randHeaders(rng), Body: randBody(rng),
		})
		codes := []int{200, 201, 204, 400, 404, 405, 500, 299, 1000, 0}
		texts := []string{"", "", "Fine", "a b"}
		resps = append(resps, &Response{
			Status: codes[rng.Intn(len(codes))], StatusText: texts[rng.Intn(len(texts))],
			Header: randHeaders(rng), Body: randBody(rng),
		})
	}
	for i, r := range reqs {
		if got, want := WriteRequest(r), refWriteRequest(r); !bytes.Equal(got, want) {
			t.Fatalf("request %d %+v:\ngot  %q\nwant %q", i, r.Header, got, want)
		}
	}
	for i, r := range resps {
		if got, want := AppendResponse(nil, r, false), refWriteResponse(r); !bytes.Equal(got, want) {
			t.Fatalf("response %d %+v:\ngot  %q\nwant %q", i, r.Header, got, want)
		}
	}
	// Appending with close is writing the message with its Connection
	// header set to close, and leaves the message's header as it was.
	withClose := func(h map[string]string) map[string]string {
		c := map[string]string{"Connection": "close"}
		for k, v := range h {
			if k != "Connection" {
				c[k] = v
			}
		}
		return c
	}
	for i, r := range reqs {
		before := fmt.Sprint(r.Header)
		want := refWriteRequest(&Request{Method: r.Method, Path: r.Path, Header: withClose(r.Header), Body: r.Body})
		if got := AppendRequest([]byte("prefix"), r, true); !bytes.Equal(got, append([]byte("prefix"), want...)) || fmt.Sprint(r.Header) != before {
			t.Fatalf("request %d %+v with close:\ngot  %q\nwant %q", i, r.Header, got, want)
		}
	}
	for i, r := range resps {
		before := fmt.Sprint(r.Header)
		want := refWriteResponse(&Response{Status: r.Status, StatusText: r.StatusText, Header: withClose(r.Header), Body: r.Body})
		if got := AppendResponse([]byte("prefix"), r, true); !bytes.Equal(got, append([]byte("prefix"), want...)) || fmt.Sprint(r.Header) != before {
			t.Fatalf("response %d %+v with close:\ngot  %q\nwant %q", i, r.Header, got, want)
		}
	}
}

// FuzzTextprotoCanon: the canonical-ASCII fast path answers exactly as
// the Split/ToLower/ToUpper/Join form does, on any input.
func FuzzTextprotoCanon(f *testing.F) {
	for _, s := range []string{"", "-", "Content-Length", "content-length", "CONTENT-LENGTH", "X--Y",
		"-x-", "Host", "ñame", "\xff", "a\xffb", "Kelvin-\u212a", "x_y-Z9"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := textprotoCanon(s), refTextprotoCanon(s); got != want {
			t.Fatalf("textprotoCanon(%q) = %q, want %q", s, got, want)
		}
	})
}

// TestHealthzExchangeAllocs caps the codec's allocations for the
// swarm's common exchange: writing GET /healthz, parsing it, and
// writing its "ok" response, and parsing that. A connection's warm
// exchange, appending into its reused buffers and parsing into its
// reused message, allocates nothing; so does a reused message whose
// head alternates between two shapes, which it remembers both of.
func TestHealthzExchangeAllocs(t *testing.T) {
	req := &Request{Method: "GET", Path: "/healthz"}
	raw := WriteRequest(req)
	resp := &Response{Status: 200, Body: []byte("ok")}
	rawResp := AppendResponse(nil, resp, false)
	check := func(name string, limit float64, fn func()) {
		t.Helper()
		if n := testing.AllocsPerRun(200, fn); n > limit {
			t.Errorf("%s: %v allocations per run, want <= %v", name, n, limit)
		}
	}
	check("WriteRequest", 1, func() { WriteRequest(req) })
	check("ParseBufferedRequest", 4, func() { ParseBufferedRequest(raw) })

	out := make([]byte, 0, 256)
	var in Request
	var back Response
	check("AppendRequest", 0, func() { out = AppendRequest(out[:0], req, false) })
	check("AppendResponse", 0, func() { out = AppendResponse(out[:0], resp, true) })
	check("Request.ParseBuffered", 0, func() {
		if _, err := in.ParseBuffered(raw); err != abi.OK || in.Path != "/healthz" || in.Header["Host"] != "localhost" {
			t.Fatalf("reused parse: %+v (%v)", in, err)
		}
	})
	check("Response.ParseBuffered", 0, func() {
		if _, err := back.ParseBuffered(rawResp, false); err != abi.OK || string(back.Body) != "ok" {
			t.Fatalf("reused parse: %+v (%v)", back, err)
		}
	})
	other := WriteRequest(&Request{Method: "GET", Path: "/api/templates", Header: map[string]string{"X-A": "1", "X-B": "2"}})
	check("Request.ParseBuffered alternating", 0, func() {
		in.ParseBuffered(other)
		if _, err := in.ParseBuffered(raw); err != abi.OK || in.Path != "/healthz" || len(in.Header) != 1 {
			t.Fatalf("reused parse after another head: %+v (%v)", in, err)
		}
	})
}

// TestTwoHeadsAlternateWithoutAllocs: a reused request or response
// whose heads alternate between two shapes (healthz and the templates
// listing, as a meme-swarm connection's do) allocates nothing once it
// has seen both, and each parse shows its own head's fields.
func TestTwoHeadsAlternateWithoutAllocs(t *testing.T) {
	reqs := [2][]byte{
		WriteRequest(&Request{Method: "GET", Path: "/healthz"}),
		WriteRequest(&Request{Method: "POST", Path: "/api/templates", Header: map[string]string{"X-A": "1"}, Body: []byte("{}")}),
	}
	resps := [2][]byte{
		AppendResponse(nil, &Response{Status: 200, Body: []byte("ok")}, false),
		AppendResponse(nil, &Response{Status: 404, Header: map[string]string{"Content-Type": "application/json"}, Body: []byte("[]")}, false),
	}
	var req Request
	var resp Response
	i := 0
	step := func() {
		k := i % 2
		i++
		if _, err := req.ParseBuffered(reqs[k]); err != abi.OK {
			t.Fatalf("request %d: %v", k, err)
		}
		if _, err := resp.ParseBuffered(resps[k], false); err != abi.OK {
			t.Fatalf("response %d: %v", k, err)
		}
		if k == 0 && (req.Method != "GET" || req.Path != "/healthz" || len(req.Header) != 1 || len(req.Body) != 0 ||
			resp.Status != 200 || string(resp.Body) != "ok" || len(resp.Header) != 1) {
			t.Fatalf("healthz shape: %+v / %+v", req, resp)
		}
		if k == 1 && (req.Method != "POST" || req.Path != "/api/templates" || req.Header["X-A"] != "1" || string(req.Body) != "{}" ||
			resp.Status != 404 || resp.StatusText != "Not Found" || resp.Header["Content-Type"] != "application/json" || string(resp.Body) != "[]") {
			t.Fatalf("templates shape: %+v / %+v", req, resp)
		}
	}
	step()
	step()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("alternating two heads: %v allocations per request and response, want 0", n)
	}
}

// TestThirdHeadEvictsOlder: a reused request that sees a third head
// parses it into the older head's place, and every parse of a rotation
// through three shapes, repeats included, shows exactly that head's
// fields and headers, with nothing left over from another shape.
func TestThirdHeadEvictsOlder(t *testing.T) {
	shapes := []*Request{
		{Method: "GET", Path: "/healthz"},
		{Method: "GET", Path: "/api/templates", Header: map[string]string{"Accept": "application/json"}},
		{Method: "POST", Path: "/api/meme", Header: map[string]string{"X-B": "2", "X-C": "3"}, Body: []byte("{}")},
	}
	raws := make([][]byte, len(shapes))
	for i, r := range shapes {
		raws[i] = WriteRequest(r)
	}
	var req Request
	for n, k := range []int{0, 1, 2, 0, 2, 1, 1, 0, 2, 0} {
		if _, err := req.ParseBuffered(raws[k]); err != abi.OK {
			t.Fatalf("parse %d (shape %d): %v", n, k, err)
		}
		want, _, err := ParseBufferedRequest(raws[k])
		if err != abi.OK {
			t.Fatalf("fresh parse of shape %d: %v", k, err)
		}
		if req.Method != want.Method || req.Path != want.Path || req.Proto != want.Proto ||
			!maps.Equal(req.Header, want.Header) || string(req.Body) != string(want.Body) {
			t.Errorf("parse %d (shape %d): %+v, want %+v", n, k, req, *want)
		}
	}
	var resp Response
	codes := []int{200, 404, 500}
	for n, k := range []int{0, 1, 2, 1, 0, 2, 2, 0} {
		raw := AppendResponse(nil, &Response{Status: codes[k], Header: map[string]string{"X-Shape": strconv.Itoa(k)}, Body: []byte("b")}, false)
		if _, err := resp.ParseBuffered(raw, false); err != abi.OK {
			t.Fatalf("response parse %d (shape %d): %v", n, k, err)
		}
		if resp.Status != codes[k] || resp.StatusText != statusText(codes[k]) || resp.Header["X-Shape"] != strconv.Itoa(k) || len(resp.Header) != 2 {
			t.Errorf("response parse %d (shape %d): %+v", n, k, resp)
		}
	}
}
