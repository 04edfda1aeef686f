package browsix

import (
	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/netsim"
)

// The XMLHttpRequest-like API (§4.1): HTTP to in-Browsix servers over
// kernel-side sockets, plus the netsim remote-host twin the case studies
// route against.

// HTTPResponse is the result of Fetch/FetchSync. A remote host's
// response may share its Header and Body with every other request's
// (the meme server's healthz and templates listing do), so neither may
// be modified.
type HTTPResponse struct {
	Status int
	Header map[string]string
	Body   []byte
}

// Fetch sends an HTTP request to an in-Browsix socket server listening on
// port, invoking cb with the parsed response (or a 0 status on failure).
// It encapsulates connecting a Browsix socket, serializing the request,
// and parsing the (possibly chunked) response — §4.1.
func (in *Instance) Fetch(method string, port int, path string, body []byte, cb func(HTTPResponse)) {
	in.Main(func() {
		in.Kernel.Connect(port, func(conn *core.KernelConn, err Errno) {
			if err != abi.OK {
				cb(HTTPResponse{Status: 0})
				return
			}
			// One-shot client: request an explicit close so the read loop
			// below (which accumulates until EOF) terminates under the
			// keep-alive server.
			raw := httpx.WriteRequest(&httpx.Request{
				Method: method, Path: path, Body: body,
				Header: map[string]string{"Connection": "close"},
			})
			conn.Write(raw, func(_ int, werr Errno) {
				if werr != abi.OK {
					conn.Close()
					cb(HTTPResponse{Status: 0})
					return
				}
				in.readHTTPResponse(conn, cb)
			})
		})
	})
}

// readHTTPResponse accumulates the whole response then parses it (the
// kernel side is CPS; parse over the buffered bytes).
func (in *Instance) readHTTPResponse(conn *core.KernelConn, cb func(HTTPResponse)) {
	var buf []byte
	var loop func()
	loop = func() {
		conn.Read(16*1024, func(b []byte, err Errno) {
			if err != abi.OK || len(b) == 0 {
				conn.Close()
				off := 0
				resp, perr := httpx.ReadResponse(func(n int) ([]byte, Errno) {
					if off >= len(buf) {
						return nil, abi.OK
					}
					end := off + n
					if end > len(buf) {
						end = len(buf)
					}
					out := buf[off:end]
					off = end
					return out, abi.OK
				})
				if perr != abi.OK {
					cb(HTTPResponse{Status: 0})
					return
				}
				cb(HTTPResponse{Status: resp.Status, Header: resp.Header, Body: resp.Body})
				return
			}
			buf = append(buf, b...)
			loop()
		})
	}
	loop()
}

// FetchSync is Fetch driving the simulation to completion.
func (in *Instance) FetchSync(method string, port int, path string, body []byte) HTTPResponse {
	var resp HTTPResponse
	done := false
	in.Fetch(method, port, path, body, func(r HTTPResponse) { resp = r; done = true })
	if !in.Sim.RunUntil(func() bool { return done }) {
		panic(in.deadlockErr("FetchSync " + path).Error())
	}
	return resp
}

// FetchRemote sends the same logical request to a netsim remote host —
// the cloud path of the meme generator's dynamic routing.
func (in *Instance) FetchRemote(host, method, path string, body []byte, cb func(HTTPResponse)) {
	in.Main(func() {
		in.Net.Fetch(host, netsim.Request{Method: method, Path: path, Body: body}, func(r netsim.Response) {
			cb(HTTPResponse{Status: r.Status, Header: r.Header, Body: r.Body})
		})
	})
}

// FetchRemoteSync drives FetchRemote to completion.
func (in *Instance) FetchRemoteSync(host, method, path string, body []byte) HTTPResponse {
	var resp HTTPResponse
	done := false
	in.FetchRemote(host, method, path, body, func(r HTTPResponse) { resp = r; done = true })
	if !in.Sim.RunUntil(func() bool { return done }) {
		panic(in.deadlockErr("FetchRemoteSync " + path).Error())
	}
	return resp
}
