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
}

// Response is an HTTP response.
type Response struct {
	Status     int
	StatusText string
	Header     map[string]string
	Body       []byte
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
	path := r.Path
	if path == "" {
		path = "/"
	}
	clen := -1
	if len(r.Body) > 0 {
		clen = len(r.Body)
	}
	out := make([]byte, 0, len(r.Method)+len(path)+len(" HTTP/1.1\r\n")+1+headSize(r.Header)+len(r.Body))
	out = append(out, r.Method...)
	out = append(out, ' ')
	out = append(out, path...)
	out = append(out, " HTTP/1.1\r\n"...)
	out = appendHeaders(out, r.Header, true, clen)
	return append(out, r.Body...)
}

// WriteResponse serializes a response. If resp.Header sets
// Transfer-Encoding: chunked the body is chunk-encoded (the paper notes
// the XHR layer handles "potentially chunked" responses); otherwise a
// Content-Length header is emitted, so every response is self-framing
// and keep-alive connections never need close-delimited bodies. As with
// WriteRequest, no Connection header is forced: callers that close set
// it themselves.
func WriteResponse(r *Response) []byte {
	const chunkSize = 4096
	text := r.StatusText
	if text == "" {
		text = statusText(r.Status)
	}
	chunked := strings.EqualFold(r.Header["Transfer-Encoding"], "chunked")
	clen, size := len(r.Body), len(r.Body)
	if chunked {
		clen = -1
		size += (len(r.Body)/chunkSize+1)*len("1000\r\n\r\n") + len("0\r\n\r\n")
	}
	out := make([]byte, 0, len("HTTP/1.1 000 \r\n")+len(text)+headSize(r.Header)+size)
	out = append(out, "HTTP/1.1 "...)
	out = strconv.AppendInt(out, int64(r.Status), 10)
	out = append(out, ' ')
	out = append(out, text...)
	out = append(out, "\r\n"...)
	out = appendHeaders(out, r.Header, false, clen)
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
	n := len("Host: localhost\r\nContent-Length: 18446744073709551615\r\n\r\n")
	for k, v := range h {
		n += len(k) + len(v) + len(": \r\n")
	}
	return n
}

// appendHeaders appends one "Name: value" line per header in sorted
// name order, then the blank line that ends the head. withHost adds
// Host: localhost unless h sets Host; clen >= 0 sets Content-Length,
// overriding h's. The names are sorted in a stack array, so a head with
// a few headers costs no allocation beyond out.
func appendHeaders(out []byte, h map[string]string, withHost bool, clen int) []byte {
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
	slices.Sort(keys)
	for _, k := range keys {
		out = append(out, k...)
		out = append(out, ": "...)
		switch {
		case clen >= 0 && k == "Content-Length":
			out = strconv.AppendInt(out, int64(clen), 10)
		case addHost && k == "Host":
			out = append(out, "localhost"...)
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
// returns the head as one string, the only allocation its lines cost:
// the start line, header names and values are substrings of it. Each
// line is checked as it completes, so a bad start line (a request line
// without two spaces, a status line without a numeric code) or a
// header line without a colon fails as soon as it arrives, before the
// rest of the head does.
func (rd *reader) head(isResponse bool) (string, abi.Errno) {
	start := 0 // where the line being read begins in rd.buf
	for {
		i := bytes.IndexByte(rd.buf[rd.scan:], '\n')
		if i < 0 {
			rd.scan = len(rd.buf)
			if rd.eof {
				return "", abi.EIO
			}
			if err := rd.fill(); err != abi.OK {
				return "", err
			}
			continue
		}
		i += rd.scan
		rd.scan = i + 1
		line := trimCR(rd.buf[start:i])
		switch {
		case start == 0:
			if !startLineOK(line, isResponse) {
				return "", abi.EINVAL
			}
		case len(line) == 0:
			h := string(rd.buf[:i+1])
			rd.buf, rd.scan = rd.buf[i+1:], 0
			return h, abi.OK
		case bytes.IndexByte(line, ':') < 0:
			return "", abi.EINVAL
		}
		start = i + 1
	}
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
// its header map, nil when the head has no header line.
func splitHead(h string) (start string, hdr map[string]string) {
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

// readRequestHead parses the request line and headers.
func (rd *reader) readRequestHead() (*Request, abi.Errno) {
	h, err := rd.head(false)
	if err != abi.OK {
		return nil, err
	}
	line, hdr := splitHead(h)
	method, rest, _ := strings.Cut(line, " ")
	path, proto, _ := strings.Cut(rest, " ")
	return &Request{Method: method, Path: path, Proto: proto, Header: hdr}, abi.OK
}

// readResponseHead parses the status line and headers.
func (rd *reader) readResponseHead() (*Response, abi.Errno) {
	h, err := rd.head(true)
	if err != abi.OK {
		return nil, err
	}
	line, hdr := splitHead(h)
	_, rest, _ := strings.Cut(line, " ")
	code, text, _ := strings.Cut(rest, " ")
	status, _ := strconv.Atoi(code)
	return &Response{Status: status, StatusText: text, Header: hdr}, abi.OK
}

// ReadRequest parses one request from a stream.
func ReadRequest(read ReadFunc) (*Request, abi.Errno) {
	rd := &reader{read: read}
	req, err := rd.readRequestHead()
	if err != abi.OK {
		return nil, err
	}
	body, err := rd.readBody(req.Header, false)
	if err != abi.OK {
		return nil, err
	}
	req.Body = body
	return req, abi.OK
}

// ReadResponse parses one response from a stream.
func ReadResponse(read ReadFunc) (*Response, abi.Errno) {
	rd := &reader{read: read}
	resp, err := rd.readResponseHead()
	if err != abi.OK {
		return nil, err
	}
	body, err := rd.readBody(resp.Header, true)
	if err != abi.OK {
		return nil, err
	}
	resp.Body = body
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

// ParseBufferedRequest parses one complete request from buf. On success
// it returns the request and the unconsumed remainder (the start of the
// next pipelined request). On EAGAIN the buffer held only a partial
// message; offer a longer one next time.
func ParseBufferedRequest(buf []byte) (*Request, []byte, abi.Errno) {
	rd := &reader{buf: buf, eof: true}
	req, err := rd.readRequestHead()
	if err == abi.OK {
		req.Body, err = rd.readBody(req.Header, false)
	}
	switch err {
	case abi.OK:
		return req, rd.buf, abi.OK
	case abi.EIO:
		return nil, buf, abi.EAGAIN
	default:
		return nil, buf, err
	}
}

// ParseBufferedResponse parses one complete response from buf. eof says
// whether the connection has delivered EOF — required to finish a
// close-delimited body (no Content-Length, not chunked), which is only
// complete when no more bytes can arrive.
func ParseBufferedResponse(buf []byte, eof bool) (*Response, []byte, abi.Errno) {
	rd := &reader{buf: buf, eof: true}
	resp, err := rd.readResponseHead()
	if err == abi.OK {
		_, hasCL := resp.Header["Content-Length"]
		chunked := strings.EqualFold(resp.Header["Transfer-Encoding"], "chunked")
		if !hasCL && !chunked && !eof {
			return nil, buf, abi.EAGAIN
		}
		resp.Body, err = rd.readBody(resp.Header, true)
	}
	switch err {
	case abi.OK:
		return resp, rd.buf, abi.OK
	case abi.EIO:
		return nil, buf, abi.EAGAIN
	default:
		return nil, buf, err
	}
}

// Handler services one request.
type Handler func(req *Request) *Response

const (
	acceptChunk  = 64        // listener drain granularity (one ring doorbell)
	readChunk    = 16 * 1024 // per-read request-bytes granularity
	serveBacklog = 128
)

// srvConn is one connection's event-loop state: unparsed request bytes
// accumulated from non-blocking reads, unflushed response bytes awaiting
// socket space, and the teardown flags.
type srvConn struct {
	fd      int
	in      []byte
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
					fresh = append(fresh, &srvConn{fd: cfd})
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
	for len(c.in) > 0 && !c.closing {
		req, rest, perr := ParseBufferedRequest(c.in)
		if perr == abi.EAGAIN {
			break
		}
		if perr != abi.OK {
			c.out = append(c.out, WriteResponse(&Response{
				Status: 400,
				Header: map[string]string{"Connection": "close"},
			})...)
			c.closing = true
			c.in = nil
			return true
		}
		// Compact in place: rest is a suffix of c.in's backing array, so
		// this is a forward memmove, and the buffer never creeps.
		n := copy(c.in, rest)
		c.in = c.in[:n]
		resp := handler(req)
		if resp == nil {
			resp = &Response{Status: 500}
		}
		if wantsClose(req) {
			if resp.Header == nil {
				resp.Header = map[string]string{}
			}
			resp.Header["Connection"] = "close"
			c.closing = true
		}
		c.out = append(c.out, WriteResponse(resp)...)
	}
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
		resp = &Response{Status: 500}
	}
	if resp.Header == nil {
		resp.Header = map[string]string{}
	}
	resp.Header["Connection"] = "close"
	posix.WriteAll(p, conn, WriteResponse(resp))
	p.Close(conn)
}
