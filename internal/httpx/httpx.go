// Package httpx is the minimal HTTP/1.1 implementation the case studies
// need: request/response serialization and parsing (content-length and
// chunked bodies), a server loop for Browsix processes (the meme server,
// §5.1.1), and pure building blocks the kernel-side XHR API reuses
// (§4.1: Browsix "replaces several native modules, like the module for
// parsing and generating HTTP responses and requests, with pure
// JavaScript implementations").
package httpx

import (
	"bytes"
	"cmp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/abi"
	"repro/internal/posix"
)

// Request is an HTTP request.
type Request struct {
	Method string
	Path   string
	Proto  string
	Header map[string]string
	Body   []byte

	// head is the raw head a parse last filled the fields from, and
	// alt the head before it, with its own fields and header map
	// (setHead).
	head string
	alt  reqHead
}

// reqHead is a remembered request head and the fields it filled.
type reqHead struct {
	method, path, proto string
	header              map[string]string
	head                string
}

// swap exchanges req's head and fields with its remembered other head.
func (req *Request) swap() {
	a := &req.alt
	req.Method, a.method = a.method, req.Method
	req.Path, a.path = a.path, req.Path
	req.Proto, a.proto = a.proto, req.Proto
	req.Header, a.header = a.header, req.Header
	req.head, a.head = a.head, req.head
}

// Response is an HTTP response.
type Response struct {
	Status     int
	StatusText string
	Header     map[string]string
	Body       []byte

	head string   // as Request.head
	alt  respHead // as Request.alt
}

// respHead is a remembered response head and the fields it filled.
type respHead struct {
	status     int
	statusText string
	header     map[string]string
	head       string
}

// swap exchanges resp's head and fields with its remembered other head.
func (resp *Response) swap() {
	a := &resp.alt
	resp.Status, a.status = a.status, resp.Status
	resp.StatusText, a.statusText = a.statusText, resp.StatusText
	resp.Header, a.header = a.header, resp.Header
	resp.head, a.head = a.head, resp.head
}

// statusText covers the codes the system emits.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 201:
		return "Created"
	case 204:
		return "No Content"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 500:
		return "Internal Server Error"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// WriteRequest serializes a request with a Content-Length body. No
// Connection header is emitted unless the caller sets one — HTTP/1.1
// connections default to keep-alive, which the event-loop server and
// the load-generator swarm depend on; one-shot clients (Instance.Fetch)
// set Connection: close explicitly.
func WriteRequest(r *Request) []byte {
	size := len(r.Method) + len(r.Path) + len("/ HTTP/1.1\r\n") + 1 + headSize(r.Header) + len(r.Body)
	return AppendRequest(make([]byte, 0, size), r, false)
}

// AppendRequest appends the serialization WriteRequest makes to out.
// close adds Connection: close, overriding r's Connection header,
// without touching r.
func AppendRequest(out []byte, r *Request, close bool) []byte {
	path := r.Path
	if path == "" {
		path = "/"
	}
	clen := -1
	if len(r.Body) > 0 {
		clen = len(r.Body)
	}
	out = append(out, r.Method...)
	out = append(out, ' ')
	out = append(out, path...)
	out = append(out, " HTTP/1.1\r\n"...)
	out = appendHeaders(out, r.Header, true, clen, close)
	return append(out, r.Body...)
}

const chunkSize = 4096

// AppendResponse appends the serialization of a response to out. If
// r.Header sets Transfer-Encoding: chunked the body is chunk-encoded
// (the paper notes the XHR layer handles "potentially chunked"
// responses); otherwise a Content-Length header is emitted, so every
// response is self-framing and keep-alive connections never need
// close-delimited bodies. close adds Connection: close, overriding r's
// Connection header, without touching r, so one response may be served
// to every client.
func AppendResponse(out []byte, r *Response, close bool) []byte {
	text := r.StatusText
	if text == "" {
		text = statusText(r.Status)
	}
	chunked := strings.EqualFold(r.Header["Transfer-Encoding"], "chunked")
	clen := len(r.Body)
	if chunked {
		clen = -1
	}
	out = append(out, "HTTP/1.1 "...)
	out = strconv.AppendInt(out, int64(r.Status), 10)
	out = append(out, ' ')
	out = append(out, text...)
	out = append(out, "\r\n"...)
	out = appendHeaders(out, r.Header, false, clen, close)
	if !chunked {
		return append(out, r.Body...)
	}
	for off := 0; off < len(r.Body); off += chunkSize {
		end := min(off+chunkSize, len(r.Body))
		out = strconv.AppendInt(out, int64(end-off), 16)
		out = append(out, "\r\n"...)
		out = append(out, r.Body[off:end]...)
		out = append(out, "\r\n"...)
	}
	return append(out, "0\r\n\r\n"...)
}

// headSize bounds the bytes appendHeaders writes for h.
func headSize(h map[string]string) int {
	n := len("Host: localhost\r\nContent-Length: 18446744073709551615\r\nConnection: close\r\n\r\n")
	for k, v := range h {
		n += len(k) + len(v) + len(": \r\n")
	}
	return n
}

// appendHeaders appends one "Name: value" line per header in sorted
// name order, then the blank line that ends the head. withHost adds
// Host: localhost unless h sets Host; clen >= 0 sets Content-Length,
// overriding h's; close sets Connection: close, overriding h's. The
// names are sorted in a stack array, so a head with a few headers costs
// no allocation beyond out.
func appendHeaders(out []byte, h map[string]string, withHost bool, clen int, close bool) []byte {
	var buf [8]string
	keys := buf[:0]
	for k := range h {
		keys = append(keys, k)
	}
	_, hasHost := h["Host"]
	addHost := withHost && !hasHost
	if addHost {
		keys = append(keys, "Host")
	}
	if _, ok := h["Content-Length"]; clen >= 0 && !ok {
		keys = append(keys, "Content-Length")
	}
	if _, ok := h["Connection"]; close && !ok {
		keys = append(keys, "Connection")
	}
	slices.Sort(keys)
	for _, k := range keys {
		out = append(out, k...)
		out = append(out, ": "...)
		switch {
		case clen >= 0 && k == "Content-Length":
			out = strconv.AppendInt(out, int64(clen), 10)
		case addHost && k == "Host":
			out = append(out, "localhost"...)
		case close && k == "Connection":
			out = append(out, "close"...)
		default:
			out = append(out, h[k]...)
		}
		out = append(out, "\r\n"...)
	}
	return append(out, "\r\n"...)
}

// ReadFunc supplies stream bytes: it returns up to n bytes, empty at EOF.
type ReadFunc func(n int) ([]byte, abi.Errno)

// reader buffers a ReadFunc for incremental parsing. A nil read with
// eof set parses from a fixed buffer (the ParseBuffered* entry points).
type reader struct {
	read ReadFunc
	buf  []byte
	// scan marks how far buf has already been searched for '\n': bytes
	// before it can never contain one. Without it, a header arriving in
	// single-byte fills re-scans the whole buffer per fill — O(n²).
	scan int
	eof  bool
}

func (rd *reader) fill() abi.Errno {
	if rd.eof {
		return abi.OK
	}
	b, err := rd.read(16 * 1024)
	if err != abi.OK {
		return err
	}
	if len(b) == 0 {
		rd.eof = true
		return abi.OK
	}
	rd.buf = append(rd.buf, b...)
	return abi.OK
}

// line reads through the next CRLF (or LF) without re-scanning already
// searched bytes or converting the buffer to a string per attempt.
func (rd *reader) line() (string, abi.Errno) {
	for {
		if i := bytes.IndexByte(rd.buf[rd.scan:], '\n'); i >= 0 {
			i += rd.scan
			end := i
			for end > 0 && rd.buf[end-1] == '\r' {
				end--
			}
			line := string(rd.buf[:end])
			rd.buf = rd.buf[i+1:]
			rd.scan = 0
			return line, abi.OK
		}
		rd.scan = len(rd.buf)
		if rd.eof {
			return "", abi.EIO
		}
		if err := rd.fill(); err != abi.OK {
			return "", err
		}
	}
}

// take reads exactly n bytes.
func (rd *reader) take(n int) ([]byte, abi.Errno) {
	for len(rd.buf) < n {
		if rd.eof {
			return nil, abi.EIO
		}
		if err := rd.fill(); err != abi.OK {
			return nil, err
		}
	}
	out := rd.buf[:n]
	rd.buf = rd.buf[n:]
	rd.scan = 0
	return out, abi.OK
}

// rest drains to EOF.
func (rd *reader) rest() ([]byte, abi.Errno) {
	for !rd.eof {
		if err := rd.fill(); err != abi.OK {
			return nil, err
		}
	}
	out := rd.buf
	rd.buf = nil
	rd.scan = 0
	return out, abi.OK
}

// head reads through the blank line that ends a message head and
// returns the head's bytes in the buffer. Each line is checked as it
// completes, so a bad start line (a request line without two spaces, a
// status line without a numeric code) or a header line without a colon
// fails as soon as it arrives, before the rest of the head does.
func (rd *reader) head(isResponse bool) ([]byte, abi.Errno) {
	start := 0 // where the line being read begins in rd.buf
	for {
		i := bytes.IndexByte(rd.buf[rd.scan:], '\n')
		if i < 0 {
			rd.scan = len(rd.buf)
			if rd.eof {
				return nil, abi.EIO
			}
			if err := rd.fill(); err != abi.OK {
				return nil, err
			}
			continue
		}
		i += rd.scan
		rd.scan = i + 1
		line := trimCR(rd.buf[start:i])
		switch {
		case start == 0:
			if !startLineOK(line, isResponse) {
				return nil, abi.EINVAL
			}
		case len(line) == 0:
			h := rd.buf[: i+1 : i+1]
			rd.buf, rd.scan = rd.buf[i+1:], 0
			return h, abi.OK
		case bytes.IndexByte(line, ':') < 0:
			return nil, abi.EINVAL
		}
		start = i + 1
	}
}

// setHead makes the head bytes h the message's head. A message
// remembers its last two heads, each with its own fields and header
// map, so a connection whose messages alternate between two shapes
// reparses neither: h repeating the current head *cur leaves the fields
// as they are, and h repeating the other one swaps it in (swap
// exchanges every field with the other head's). A third head evicts
// the older one: after the swap it is refilled over that head's fields
// (fresh is true). A new head is one string, the only allocation its
// lines cost: the start line (returned) and the header names and
// values are substrings of it, refilled into *hdr, which is made only
// for a head with header lines.
func setHead(h []byte, cur *string, hdr *map[string]string, swap func()) (start string, fresh bool) {
	if string(h) == *cur {
		return "", false
	}
	swap()
	if string(h) == *cur {
		return "", false
	}
	*cur = string(h)
	start, *hdr = splitHead(*cur, *hdr)
	return start, true
}

// trimCR drops a line's trailing carriage returns.
func trimCR[S ~string | ~[]byte](line S) S {
	for len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line
}

// startLineOK checks a request line ("METHOD PATH PROTO") or a status
// line ("PROTO CODE [TEXT]").
func startLineOK(line []byte, isResponse bool) bool {
	_, rest, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return false
	}
	if isResponse {
		code, _, _ := bytes.Cut(rest, []byte(" "))
		_, err := strconv.Atoi(string(code))
		return err == nil
	}
	_, _, ok = bytes.Cut(rest, []byte(" "))
	return ok
}

// splitHead splits a head (as head returns it) into its start line and
// its headers, refilling hdr after clearing it, or making a map when hdr
// is nil and the head has a header line.
func splitHead(h string, hdr map[string]string) (start string, _ map[string]string) {
	clear(hdr)
	i := strings.IndexByte(h, '\n')
	start, h = trimCR(h[:i]), h[i+1:]
	for {
		i := strings.IndexByte(h, '\n')
		line := trimCR(h[:i])
		if line == "" {
			return start, hdr
		}
		h = h[i+1:]
		if hdr == nil {
			hdr = map[string]string{}
		}
		k, v, _ := strings.Cut(line, ":")
		hdr[textprotoCanon(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
}

// textprotoCanon canonicalizes a header name (Content-Length form). A
// name already in canonical ASCII form, as every name this system
// writes is, comes back unchanged without allocating.
func textprotoCanon(s string) string {
	if isCanonASCII(s) {
		return s
	}
	parts := strings.Split(strings.ToLower(s), "-")
	for i, p := range parts {
		if p != "" {
			parts[i] = strings.ToUpper(p[:1]) + p[1:]
		}
	}
	return strings.Join(parts, "-")
}

// isCanonASCII reports whether s is ASCII with no lower-case letter
// opening a dash-separated part and no upper-case letter inside one:
// exactly the ASCII names textprotoCanon maps to themselves.
func isCanonASCII(s string) bool {
	upper := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 0x80:
			return false
		case upper && 'a' <= c && c <= 'z', !upper && 'A' <= c && c <= 'Z':
			return false
		}
		upper = c == '-'
	}
	return true
}

// readBody consumes a message body per the headers.
func (rd *reader) readBody(hdr map[string]string, isResponse bool) ([]byte, abi.Errno) {
	if strings.EqualFold(hdr["Transfer-Encoding"], "chunked") {
		var body []byte
		for {
			line, err := rd.line()
			if err != abi.OK {
				return nil, err
			}
			n, perr := strconv.ParseInt(strings.TrimSpace(line), 16, 64)
			if perr != nil || n < 0 {
				return nil, abi.EINVAL
			}
			if n == 0 {
				rd.line() // trailing CRLF
				return body, abi.OK
			}
			chunk, err := rd.take(int(n))
			if err != abi.OK {
				return nil, err
			}
			body = append(body, chunk...)
			rd.line() // chunk CRLF
		}
	}
	if cl, ok := hdr["Content-Length"]; ok {
		n, perr := strconv.Atoi(cl)
		if perr != nil || n < 0 {
			return nil, abi.EINVAL
		}
		return rd.take(n)
	}
	if isResponse {
		// Connection: close framing.
		return rd.rest()
	}
	return nil, abi.OK
}

// readRequest parses one request into req: its line and headers (reused
// when the head repeats one of req's last two, see setHead), then its
// body.
func (rd *reader) readRequest(req *Request) abi.Errno {
	h, err := rd.head(false)
	if err != abi.OK {
		return err
	}
	if line, fresh := setHead(h, &req.head, &req.Header, req.swap); fresh {
		var rest string
		req.Method, rest, _ = strings.Cut(line, " ")
		req.Path, req.Proto, _ = strings.Cut(rest, " ")
	}
	req.Body, err = rd.readBody(req.Header, false)
	return err
}

// readResponse parses one response into resp as readRequest does. eof
// says whether the stream has ended: without it, a close-delimited body
// (no Content-Length, not chunked) is incomplete (EIO).
func (rd *reader) readResponse(resp *Response, eof bool) abi.Errno {
	h, err := rd.head(true)
	if err != abi.OK {
		return err
	}
	if line, fresh := setHead(h, &resp.head, &resp.Header, resp.swap); fresh {
		_, rest, _ := strings.Cut(line, " ")
		var code string
		code, resp.StatusText, _ = strings.Cut(rest, " ")
		resp.Status, _ = strconv.Atoi(code)
	}
	_, hasCL := resp.Header["Content-Length"]
	if !hasCL && !eof && !strings.EqualFold(resp.Header["Transfer-Encoding"], "chunked") {
		return abi.EIO
	}
	resp.Body, err = rd.readBody(resp.Header, true)
	return err
}

// ReadRequest parses one request from a stream.
func ReadRequest(read ReadFunc) (*Request, abi.Errno) {
	req := &Request{}
	if err := (&reader{read: read}).readRequest(req); err != abi.OK {
		return nil, err
	}
	return req, abi.OK
}

// ReadResponse parses one response from a stream.
func ReadResponse(read ReadFunc) (*Response, abi.Errno) {
	resp := &Response{}
	if err := (&reader{read: read}).readResponse(resp, true); err != abi.OK {
		return nil, err
	}
	return resp, abi.OK
}

// ---------------------------------------------------------------------------
// Buffered incremental parsing: the event-loop server and the load-swarm
// clients accumulate non-blocking reads into a per-connection buffer and
// repeatedly offer it here. EAGAIN means "incomplete — keep the buffer
// and read more"; EINVAL means the peer is unsalvageably malformed. The
// reader's internal data-exhausted signal (EIO) maps to EAGAIN because a
// fixed buffer running dry is exactly "not enough bytes yet".
// ---------------------------------------------------------------------------

// ParseBufferedRequest parses one complete request from buf into a new
// Request. On success it returns the request and the unconsumed
// remainder (the start of the next pipelined request). On EAGAIN the
// buffer held only a partial message; offer a longer one next time.
func ParseBufferedRequest(buf []byte) (*Request, []byte, abi.Errno) {
	req := &Request{}
	rest, err := req.ParseBuffered(buf)
	if err != abi.OK {
		return nil, rest, err
	}
	return req, rest, abi.OK
}

// ParseBufferedResponse parses one complete response from buf into a
// new Response. eof says whether the connection has delivered EOF —
// required to finish a close-delimited body (no Content-Length, not
// chunked), which is only complete when no more bytes can arrive.
func ParseBufferedResponse(buf []byte, eof bool) (*Response, []byte, abi.Errno) {
	resp := &Response{}
	rest, err := resp.ParseBuffered(buf, eof)
	if err != abi.OK {
		return nil, rest, err
	}
	return resp, rest, abi.OK
}

// ParseBuffered is ParseBufferedRequest into req, reusing it: a head
// byte-identical to either of the last two req was parsed from brings
// back that head's line and headers, and a new head refills the older
// one's header map (setHead), so a connection's warm parse allocates
// nothing. The Body is a view of buf.
// What req held before is overwritten, and on an error req is left
// partly filled.
func (req *Request) ParseBuffered(buf []byte) (rest []byte, err abi.Errno) {
	rd := reader{buf: buf, eof: true}
	return rd.buffered(buf, rd.readRequest(req))
}

// ParseBuffered is ParseBufferedResponse into resp, reusing it as
// Request.ParseBuffered does.
func (resp *Response) ParseBuffered(buf []byte, eof bool) (rest []byte, err abi.Errno) {
	rd := reader{buf: buf, eof: true}
	return rd.buffered(buf, rd.readResponse(resp, eof))
}

// buffered maps a fixed buffer's parse result: the remainder on
// success, and the whole buffer with EAGAIN when it ran dry (EIO).
func (rd *reader) buffered(buf []byte, err abi.Errno) ([]byte, abi.Errno) {
	switch err {
	case abi.OK:
		return rd.buf, abi.OK
	case abi.EIO:
		return buf, abi.EAGAIN
	default:
		return buf, err
	}
}

// Handler services one request. req, its Header and its Body are the
// connection's and valid only until the handler returns: the server
// parses the connection's next request into them. A handler must not
// keep or modify them. The server writes the returned response before
// the next request is parsed and never modifies it, so a handler may
// return one shared response to every request.
type Handler func(req *Request) *Response

// Responses the server makes itself, shared like a handler's.
var (
	badRequest    = &Response{Status: 400}
	internalError = &Response{Status: 500}
)

const (
	acceptChunk  = 64        // listener drain granularity (one ring doorbell)
	readChunk    = 16 * 1024 // per-read request-bytes granularity
	serveBacklog = 128
)

// srvConn is one connection's event-loop state: unparsed request bytes
// accumulated from non-blocking reads, the request they are parsed into,
// unflushed response bytes awaiting socket space, and the teardown
// flags.
type srvConn struct {
	fd      int
	in      []byte
	req     Request
	out     []byte
	closing bool // close once out drains (Connection: close / parse error)
	eof     bool // peer half-closed its write side; drain then close
}

// Serve runs the event-driven HTTP/1.1 server: ONE process multiplexes
// every connection over SYS_poll. The listener is non-blocking and
// drained in accept batches (one ring doorbell per batch); connections
// are non-blocking, keep-alive by default, and parse pipelined requests
// incrementally from a per-connection buffer. Responses queue in an
// output buffer flushed as far as the socket accepts — when the peer
// stops reading, the connection parks on POLLOUT and the server stops
// reading new requests from it (backpressure) without stalling anyone
// else. Service order is deterministic: the poll set is listener-first
// then ascending connection fd, every pass, built by one walk over the
// connections kept in fd order.
//
// Serve returns when the listener descriptor dies (POLLNVAL — e.g. a
// signal handler closed it) or on setup failure.
func Serve(p posix.Proc, port int, handler Handler) abi.Errno {
	lfd, err := p.Socket()
	if err != abi.OK {
		return err
	}
	if err := p.Bind(lfd, port); err != abi.OK {
		return err
	}
	if err := p.Listen(lfd, serveBacklog); err != abi.OK {
		return err
	}
	if err := p.Setfl(lfd, abi.O_NONBLOCK); err != abi.OK {
		return err
	}
	var conns []*srvConn // live connections, ascending fd
	var fresh []*srvConn // accepted this pass; joins conns after service
	var idle []*srvConn  // gone connections' records, for the next accepts
	var fds []abi.Pollfd
	for {
		fds = append(fds[:0], abi.Pollfd{Fd: int32(lfd), Events: abi.POLLIN})
		for _, c := range conns {
			ev := uint32(abi.POLLIN)
			if len(c.out) > 0 {
				// Backpressure: a queued response means we wait for
				// writability and read no further requests.
				ev = abi.POLLOUT
			}
			fds = append(fds, abi.Pollfd{Fd: int32(c.fd), Events: ev})
		}
		if _, err := p.Poll(fds, -1); err != abi.OK {
			return err
		}
		if fds[0].Revents&abi.POLLNVAL != 0 {
			return abi.OK
		}
		fresh = fresh[:0]
		if fds[0].Revents&abi.POLLIN != 0 {
			for {
				batch, aerr := p.AcceptBatch(lfd, acceptChunk)
				for _, cfd := range batch {
					var c *srvConn
					if n := len(idle); n > 0 {
						c, idle = idle[n-1], idle[:n-1]
					} else {
						c = &srvConn{}
					}
					c.fd = cfd
					fresh = append(fresh, c)
				}
				if aerr != abi.OK || len(batch) < acceptChunk {
					break
				}
			}
		}
		live := conns[:0]
		for i, c := range conns {
			if srvService(p, c, fds[i+1].Revents, handler) {
				live = append(live, c)
			} else {
				idle = append(idle, c.recycle())
			}
		}
		clear(conns[len(live):])
		conns = live
		// A fresh connection may reuse the fd of one this pass dropped
		// (POLLNVAL), so it joins only after the service loop.
		for _, c := range fresh {
			i, _ := slices.BinarySearchFunc(conns, c.fd, func(c *srvConn, fd int) int { return cmp.Compare(c.fd, fd) })
			conns = slices.Insert(conns, i, c)
		}
	}
}

// recycle readies the record of a gone connection for the next one
// accepted: its buffers keep their arrays and its request the heads it
// remembers, so a new connection whose requests repeat an old one's
// heads parses them without allocating.
func (c *srvConn) recycle() *srvConn {
	c.fd, c.in, c.out, c.closing, c.eof = -1, c.in[:0], c.out[:0], false, false
	return c
}

// srvService handles one connection's poll result. It returns false
// once the connection is gone: closed here, or reported POLLNVAL (the
// descriptor is no longer this server's, so it is forgotten unclosed).
func srvService(p posix.Proc, c *srvConn, revents uint32, handler Handler) (keep bool) {
	switch {
	case revents == 0:
		return true
	case revents&abi.POLLNVAL != 0:
		return false
	case len(c.out) > 0:
		if revents&(abi.POLLOUT|abi.POLLERR|abi.POLLHUP) == 0 {
			return true
		}
		keep = srvFlush(p, c)
	case revents&abi.POLLERR != 0 && revents&abi.POLLIN == 0:
		keep = false
	case revents&(abi.POLLIN|abi.POLLHUP) != 0:
		keep = srvRead(p, c, handler) && srvFlush(p, c)
	default:
		return true
	}
	if !keep || len(c.out) == 0 && (c.closing || c.eof) {
		p.Close(c.fd)
		return false
	}
	return true
}

// srvRead drains the connection's readable bytes and services every
// complete pipelined request already buffered, queueing responses in
// submission order. Returns false when the connection is dead.
func srvRead(p posix.Proc, c *srvConn, handler Handler) bool {
	for !c.eof {
		b, err := p.Read(c.fd, readChunk)
		if err == abi.EAGAIN {
			break
		}
		if err != abi.OK {
			return false
		}
		if len(b) == 0 {
			c.eof = true
			break
		}
		c.in = append(c.in, b...)
		if len(b) < readChunk {
			// A short read drained the socket: stop without paying an
			// EAGAIN-confirming syscall. Poll is level-triggered, so any
			// race-arrived bytes re-report POLLIN on the next pass.
			break
		}
	}
	off := 0 // c.in's bytes before off are parsed requests
	for off < len(c.in) && !c.closing {
		rest, perr := c.req.ParseBuffered(c.in[off:])
		if perr == abi.EAGAIN {
			break
		}
		if perr != abi.OK {
			c.out = AppendResponse(c.out, badRequest, true)
			c.closing = true
			c.in = nil
			return true
		}
		off = len(c.in) - len(rest)
		resp := handler(&c.req)
		if resp == nil {
			resp = internalError
		}
		c.closing = wantsClose(&c.req)
		c.out = AppendResponse(c.out, resp, c.closing)
	}
	// Compact in place once the handlers are done with the bodies, which
	// are views of c.in: a forward memmove, so the buffer never creeps.
	n := copy(c.in, c.in[off:])
	c.in = c.in[:n]
	if c.eof {
		// Half-close: nothing further can complete a partial request.
		c.in = nil
	}
	return true
}

// srvFlush writes queued response bytes as far as the socket accepts;
// leftover bytes park the connection on POLLOUT. Returns false when the
// connection is dead.
func srvFlush(p posix.Proc, c *srvConn) bool {
	for len(c.out) > 0 {
		n, err := p.Write(c.fd, c.out)
		if n > 0 {
			rem := copy(c.out, c.out[n:])
			c.out = c.out[:rem]
		}
		if err == abi.EAGAIN {
			return true
		}
		if err != abi.OK {
			return false
		}
		if n <= 0 {
			return true
		}
	}
	return true
}

// wantsClose reports whether the request asks to end the connection
// after its response (explicit close, or HTTP/1.0 without keep-alive).
func wantsClose(req *Request) bool {
	conn := req.Header["Connection"]
	if req.Proto == "HTTP/1.0" {
		return !strings.EqualFold(conn, "keep-alive")
	}
	return strings.EqualFold(conn, "close")
}

// ServeSerial is the pre-event-loop server kept as the ablation
// baseline: blocking accept, one request per connection, Connection:
// close. The load experiments in EXPERIMENTS.md measure Serve against
// this.
func ServeSerial(p posix.Proc, port int, handler Handler) abi.Errno {
	fd, err := p.Socket()
	if err != abi.OK {
		return err
	}
	if err := p.Bind(fd, port); err != abi.OK {
		return err
	}
	if err := p.Listen(fd, 16); err != abi.OK {
		return err
	}
	for {
		conn, err := p.Accept(fd)
		if err != abi.OK {
			return err
		}
		serveConn(p, conn, handler)
	}
}

// serveConn handles a single serial connection.
func serveConn(p posix.Proc, conn int, handler Handler) {
	req, err := ReadRequest(func(n int) ([]byte, abi.Errno) { return p.Read(conn, n) })
	if err != abi.OK {
		p.Close(conn)
		return
	}
	resp := handler(req)
	if resp == nil {
		resp = internalError
	}
	posix.WriteAll(p, conn, AppendResponse(nil, resp, true))
	p.Close(conn)
}
