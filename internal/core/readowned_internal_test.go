package core

import (
	"archive/zip"
	"bytes"
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/fs"
)

// An asynchronous read's reply moves its Data to the reader uncopied
// (abi.Result), so every producer of a read's bytes must hand out bytes
// nothing else holds. These tests read through call and reply frames,
// scribble over each delivered payload (and try to grow it), and check
// that later reads of the same bytes, and the bytes the backends and
// their servers keep, are unchanged.

// viewFetcher serves files the way a server may: every body, whole or
// ranged, is a view of the bytes it keeps. With ignoreRange it answers
// a Range request with the whole body (200), as a server without range
// support does.
type viewFetcher struct {
	files       map[string][]byte
	ignoreRange bool
}

func (f *viewFetcher) Fetch(p string, cb func([]byte, int)) {
	if b, ok := f.files[p]; ok {
		cb(b, 200)
		return
	}
	cb(nil, 404)
}

func (f *viewFetcher) FetchRange(p string, off, n int64, cb func([]byte, int)) {
	b, ok := f.files[p]
	switch {
	case !ok:
		cb(nil, 404)
	case f.ignoreRange:
		cb(b, 200)
	default:
		end := min(off+n, int64(len(b)))
		cb(b[min(off, end):end], 206)
	}
}

// ownedContent is n bytes of text particular to name.
func ownedContent(name string, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte((i*7+len(name)*3+i/251)%26)
	}
	return b
}

// grow scribbles over b and appends to it, as a reader that owns b may.
func grow(b []byte) {
	scribble(b)
	_ = append(b, "XXXXXXXX"...)
}

// frameCaller issues one call at a time from fw's worker.
type frameCaller struct {
	t  *testing.T
	fw *frameWorld
	id int64
}

// call posts calls as frames and returns their results, failing unless
// each is answered exactly once.
func (c *frameCaller) call(calls ...abi.CallFrame) []abi.Result {
	c.t.Helper()
	frames := make([]*abi.CallFrame, len(calls))
	for i := range calls {
		c.id++
		f := calls[i]
		f.ID = c.id
		frames[i] = &f
	}
	c.fw.send(frames)
	out := make([]abi.Result, len(frames))
	for i, f := range frames {
		got := c.fw.replies[f.ID]
		if len(got) != 1 {
			c.t.Fatalf("%s: %d replies, want 1", abi.SyscallName(f.Trap), len(got))
		}
		out[i] = got[0].Res
	}
	return out
}

func (c *frameCaller) one(trap int, a abi.Args) abi.Result {
	c.t.Helper()
	return c.call(abi.CallFrame{Trap: trap, Args: a})[0]
}

// read reads up to n bytes from fd and checks they are want.
func (c *frameCaller) read(what string, fd, n int, want string) []byte {
	c.t.Helper()
	r := c.one(abi.SYS_read, abi.Args{Int: [3]int64{int64(fd)}, Cap: int64(n)})
	if r.Err != abi.OK || string(r.Data) != want {
		c.t.Fatalf("%s: read %q %v, want %q", what, r.Data, r.Err, want)
	}
	return r.Data
}

func (c *frameCaller) write(fd int, b string) {
	c.t.Helper()
	if r := c.one(abi.SYS_write, abi.Args{Int: [3]int64{int64(fd)}, Bytes: []byte(b)}); r.Err != abi.OK || r.Ret != int64(len(b)) {
		c.t.Fatalf("write %q: %d %v", b, r.Ret, r.Err)
	}
}

// TestReadResultsOwned: scribbling over (and appending to) a read
// delivered through a reply frame leaves every later read of the same
// bytes unchanged, for a pipe (a partial take from one segment, and a
// read gathered from several), a socket, and a pread and a read on every
// file system backend (memfs, the quota-limited localStorage backend,
// httpfs whole-body and by byte ranges, a range server that answers
// 200 and so serves later windows from its cached body, zipfs, and
// overlay over httpfs, lower and upper), cold and warm, with the page
// cache on (hit, miss, and a stale handle reading through its own
// backend handle) and off.
func TestReadResultsOwned(t *testing.T) {
	t.Run("pipe", func(t *testing.T) {
		fw := newFrameWorld(t)
		c := &frameCaller{t: t, fw: fw}
		var rfd, wfd int
		fw.run(t, func() { rfd, wfd = fw.k.doPipe2(fw.task) })
		c.write(wfd, "0123456789abcdef")
		grow(c.read("partial take", rfd, 4, "0123"))
		grow(c.read("rest of the segment", rfd, 64, "456789abcdef"))
		c.write(wfd, "ghi")
		c.write(wfd, "jkl")
		grow(c.read("gathered read", rfd, 4, "ghij"))
		c.read("last segment's tail", rfd, 64, "kl")
	})

	t.Run("socket", func(t *testing.T) {
		fw := newFrameWorld(t)
		c := &frameCaller{t: t, fw: fw}
		const port = 7300
		lfd := int(c.one(abi.SYS_socket, abi.Args{}).Ret)
		for _, trap := range []int{abi.SYS_bind, abi.SYS_listen} {
			arg := int64(port)
			if trap == abi.SYS_listen {
				arg = 4
			}
			if r := c.one(trap, abi.Args{Int: [3]int64{int64(lfd), arg}}); r.Err != abi.OK {
				t.Fatalf("%s: %v", abi.SyscallName(trap), r.Err)
			}
		}
		cfd := int(c.one(abi.SYS_socket, abi.Args{}).Ret)
		rs := c.call(
			abi.CallFrame{Trap: abi.SYS_connect, Args: abi.Args{Int: [3]int64{int64(cfd), port}}},
			abi.CallFrame{Trap: abi.SYS_accept, Args: abi.Args{Int: [3]int64{int64(lfd)}}},
		)
		if rs[0].Err != abi.OK || rs[1].Err != abi.OK {
			t.Fatalf("connect %v, accept %v", rs[0].Err, rs[1].Err)
		}
		sfd := int(rs[1].Ret)
		c.write(cfd, "hello, socket world")
		grow(c.read("partial take", sfd, 5, "hello"))
		grow(c.read("rest", sfd, 64, ", socket world"))
		c.write(sfd, "pong")
		c.write(sfd, "!")
		grow(c.read("gathered reply", cfd, 64, "pong!"))
	})

	for _, noCaches := range []bool{false, true} {
		t.Run(fmt.Sprintf("files/nocaches=%v", noCaches), func(t *testing.T) {
			readFilesOwned(t, noCaches)
		})
	}
}

// readFilesOwned mounts every backend, then reads each file through
// the frames cold and warm, scribbling over every result.
func readFilesOwned(t *testing.T, noCaches bool) {
	fw := newFrameWorld(t)
	c := &frameCaller{t: t, fw: fw}
	clock := func() int64 { return fw.sim.Now() }
	big := 3 * fs.RangeThreshold

	files := map[string][]byte{}
	var servers []*viewFetcher
	httpfs := func(ignoreRange bool, names map[string]int) fs.Backend {
		f := &viewFetcher{files: map[string][]byte{}, ignoreRange: ignoreRange}
		idx := map[string]int64{}
		for name, n := range names {
			f.files[name] = ownedContent(name, n)
			idx[name] = int64(n)
		}
		h, err := fs.NewHTTPFS(fs.BuildIndex(idx), f, clock)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, f)
		return h
	}
	fw.fsys.Mount("/http", httpfs(false, map[string]int{"/small.txt": 5000, "/big.bin": big}))
	fw.fsys.Mount("/http200", httpfs(true, map[string]int{"/big.bin": big}))
	fw.fsys.Mount("/ov", fs.NewOverlayFS(fs.NewMemFS(clock), httpfs(false, map[string]int{"/low.txt": 30000, "/stale.txt": 20000})))
	fw.fsys.Mount("/ls", fs.NewLocalStorageFS(clock, 0))
	var zbuf bytes.Buffer
	zw := zip.NewWriter(&zbuf)
	zf, err := zw.Create("z.txt")
	if err != nil {
		t.Fatal(err)
	}
	files["/zip/z.txt"] = ownedContent("/z.txt", 30000)
	zf.Write(files["/zip/z.txt"])
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	z, err := fs.NewZipFS(zbuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fw.fsys.Mount("/zip", z)
	fw.fsys.SetFeatures(fs.Features{NoCaches: noCaches})

	for _, p := range []string{"/m.txt", "/ls/q.txt", "/ov/up.txt"} {
		files[p] = ownedContent(p, 40000)
		fw.run(t, func() {
			fw.fsys.WriteFile(p, files[p], 0o644, func(err abi.Errno) {
				if err != abi.OK {
					t.Fatalf("write %s: %v", p, err)
				}
			})
		})
	}
	files["/http/small.txt"] = ownedContent("/small.txt", 5000)
	files["/http/big.bin"] = ownedContent("/big.bin", big)
	files["/http200/big.bin"] = ownedContent("/big.bin", big)
	files["/ov/low.txt"] = ownedContent("/low.txt", 30000)

	open := func(p string) int {
		t.Helper()
		r := c.one(abi.SYS_open, abi.Args{Str: [2]string{p}, Int: [3]int64{abi.O_RDONLY}})
		if r.Err != abi.OK {
			t.Fatalf("open %s: %v", p, r.Err)
		}
		return int(r.Ret)
	}
	pread := func(what string, fd, off, n int, want []byte) {
		t.Helper()
		r := c.one(abi.SYS_pread, abi.Args{Int: [3]int64{int64(fd), int64(off)}, Cap: int64(n)})
		if r.Err != abi.OK || !bytes.Equal(r.Data, want[off:off+n]) {
			t.Fatalf("%s: pread(%d, %d) %v, bytes differ from the file's", what, off, n, r.Err)
		}
		grow(r.Data)
	}
	for p, want := range files {
		fd := open(p)
		// A window off the page grid, read cold and then warm; then one
		// at the start, which the first read did not bring in.
		off, n := len(want)/3, len(want)/2
		for _, pass := range []string{"cold", "warm", "warm again"} {
			pread(p+" "+pass, fd, off, n, want)
		}
		pread(p+" other window", fd, 0, 100, want)
		pread(p+" other window warm", fd, 0, 100, want)
		for _, pass := range []string{"read", "read again"} {
			rfd := open(p)
			grow(c.read(p+" "+pass, rfd, len(want), string(want)))
		}
	}

	if !noCaches {
		// A handle opened before its path was rewritten reads through
		// its own backend handle, bypassing the page cache.
		want := ownedContent("/stale.txt", 20000)
		fd := open("/ov/stale.txt")
		pread("stale before the rewrite", fd, 100, 5000, want)
		fw.run(t, func() {
			fw.fsys.WriteFile("/ov/stale.txt", []byte("rewritten"), 0o644, func(err abi.Errno) {
				if err != abi.OK {
					t.Fatalf("rewrite: %v", err)
				}
			})
		})
		for _, pass := range []string{"stale", "stale again"} {
			pread(pass, fd, 100, 5000, want)
		}
	}

	for p, want := range files {
		var got []byte
		fw.run(t, func() { fw.fsys.ReadFile(p, func(b []byte, err abi.Errno) { got = b }) })
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the file changed after its reads were scribbled over", p)
		}
	}
	for _, s := range servers {
		for name, b := range s.files {
			if !bytes.Equal(b, ownedContent(name, len(b))) {
				t.Errorf("server file %s changed after its reads were scribbled over", name)
			}
		}
	}
}
