package httpx

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/abi"
)

// sliceReader feeds a byte slice in dribs to exercise incremental parsing.
func sliceReader(data []byte, chunk int) ReadFunc {
	off := 0
	return func(n int) ([]byte, abi.Errno) {
		if off >= len(data) {
			return nil, abi.OK
		}
		take := chunk
		if take > n {
			take = n
		}
		end := off + take
		if end > len(data) {
			end = len(data)
		}
		out := data[off:end]
		off = end
		return out, abi.OK
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Method: "POST",
		Path:   "/api/meme",
		Header: map[string]string{"Content-Type": "application/json"},
		Body:   []byte(`{"template":"doge"}`),
	}
	raw := WriteRequest(req)
	for _, chunk := range []int{1, 3, 7, 1 << 20} {
		got, err := ReadRequest(sliceReader(raw, chunk))
		if err != abi.OK {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if got.Method != "POST" || got.Path != "/api/meme" || string(got.Body) != string(req.Body) {
			t.Fatalf("chunk=%d: %+v", chunk, got)
		}
		if got.Header["Content-Type"] != "application/json" {
			t.Fatalf("headers: %v", got.Header)
		}
	}
}

func TestResponseRoundTripContentLength(t *testing.T) {
	resp := &Response{Status: 200, Body: []byte("hello body")}
	raw := AppendResponse(nil, resp, false)
	got, err := ReadResponse(sliceReader(raw, 4))
	if err != abi.OK || got.Status != 200 || string(got.Body) != "hello body" {
		t.Fatalf("got %+v err %v", got, err)
	}
	if got.Header["Content-Length"] != "10" {
		t.Fatalf("content-length: %v", got.Header)
	}
}

func TestResponseChunkedEncoding(t *testing.T) {
	body := strings.Repeat("0123456789", 1500) // > one 4KiB chunk
	resp := &Response{
		Status: 200,
		Header: map[string]string{"Transfer-Encoding": "chunked"},
		Body:   []byte(body),
	}
	raw := AppendResponse(nil, resp, false)
	if !strings.Contains(string(raw), "\r\n1000\r\n") {
		t.Fatal("no chunk framing emitted")
	}
	got, err := ReadResponse(sliceReader(raw, 13))
	if err != abi.OK || string(got.Body) != body {
		t.Fatalf("chunked round trip failed: err=%v len=%d", err, len(got.Body))
	}
}

func TestResponseConnectionCloseFraming(t *testing.T) {
	raw := []byte("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nstream until eof")
	got, err := ReadResponse(sliceReader(raw, 5))
	if err != abi.OK || string(got.Body) != "stream until eof" {
		t.Fatalf("close-framed body: %q (%v)", got.Body, err)
	}
}

func TestMalformedInputs(t *testing.T) {
	cases := []string{
		"",                                      // empty
		"GARBAGE\r\n\r\n",                       // bad request line
		"GET /\r\n\r\n",                         // missing proto
		"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", // bad header
		"HTTP/1.1 abc OK\r\n\r\n",               // bad status
		"GET / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort", // truncated body
	}
	for _, c := range cases {
		if strings.HasPrefix(c, "HTTP/") {
			if _, err := ReadResponse(sliceReader([]byte(c), 4)); err == abi.OK {
				t.Errorf("response %q parsed", c)
			}
			continue
		}
		if _, err := ReadRequest(sliceReader([]byte(c), 4)); err == abi.OK {
			t.Errorf("request %q parsed", c)
		}
	}
}

func TestHeaderCanonicalization(t *testing.T) {
	raw := []byte("GET / HTTP/1.1\r\ncontent-length: 2\r\nX-CUSTOM-THING: v\r\n\r\nok")
	got, err := ReadRequest(sliceReader(raw, 64))
	if err != abi.OK {
		t.Fatal(err)
	}
	if got.Header["Content-Length"] != "2" || got.Header["X-Custom-Thing"] != "v" {
		t.Fatalf("headers: %v", got.Header)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(body []byte, pathSuffix string) bool {
		pathSuffix = strings.Map(func(r rune) rune {
			if r <= ' ' || r > '~' {
				return 'x'
			}
			return r
		}, pathSuffix)
		req := &Request{Method: "PUT", Path: "/p/" + pathSuffix, Body: body}
		got, err := ReadRequest(sliceReader(WriteRequest(req), 9))
		return err == abi.OK && got.Path == req.Path && string(got.Body) == string(body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusTextDefaults(t *testing.T) {
	raw := AppendResponse(nil, &Response{Status: 404}, false)
	if !strings.Contains(string(raw), "404 Not Found") {
		t.Fatalf("status line: %q", raw[:32])
	}
	raw = AppendResponse(nil, &Response{Status: 299}, false)
	if !strings.Contains(string(raw), "299 Status 299") {
		t.Fatalf("unknown status line: %q", raw[:32])
	}
}

// FuzzParseBuffered offers arbitrary bytes to both buffered parsers: no
// input may panic, and a parsed message's remainder must be the input's
// unconsumed tail.
func FuzzParseBuffered(f *testing.F) {
	f.Add([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET / HTTP/1.1\r\n\r\n"))
	f.Add([]byte("POST /api/meme HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"))
	f.Add([]byte("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	// A negative chunk size used to slice out of range.
	f.Add([]byte("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n-1\r\nx\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-1\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\n\r\nclose-delimited"))
	f.Fuzz(func(t *testing.T, data []byte) {
		suffix := func(rest []byte) bool { return strings.HasSuffix(string(data), string(rest)) }
		if _, rest, err := ParseBufferedRequest(data); err == abi.OK && !suffix(rest) {
			t.Fatalf("request remainder %q is not a suffix of the input", rest)
		}
		for _, eof := range []bool{false, true} {
			if _, rest, err := ParseBufferedResponse(data, eof); err == abi.OK && !suffix(rest) {
				t.Fatalf("response (eof=%v) remainder %q is not a suffix of the input", eof, rest)
			}
		}
	})
}
