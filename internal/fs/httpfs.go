package fs

import (
	"encoding/json"
	"path"

	"repro/internal/abi"
)

// Fetcher retrieves a file over the (simulated) network. status is an HTTP
// status code; 200 with body on success. Completion is asynchronous: the
// callback fires from a simulator event after the modelled round trip.
type Fetcher interface {
	Fetch(p string, cb func(body []byte, status int))
}

// RangeFetcher is the optional Fetcher extension for HTTP Range
// requests: fetch exactly [off, off+n) of a file (status 206 or 200).
// When the server supports it, httpfs serves reads with byte-range
// fetches sized to whatever window the page cache asks for (one read's
// pages, or the readahead window) instead of downloading the whole body
// — first-byte latency on a large file drops from
// transfer(size) to transfer(window).
type RangeFetcher interface {
	FetchRange(p string, off, n int64, cb func(body []byte, status int))
}

// HTTPFS is BrowserFS's XmlHttpRequest backend as extended by Browsix
// (§3.6): a read-only file system backed by an HTTP server. The directory
// index is loaded once (from an index.json listing); file *contents* are
// fetched lazily on first access and cached — this is the mechanism that
// lets the LaTeX editor mount a multi-gigabyte TeX Live tree but transfer
// only the few megabytes a given document touches.
type HTTPFS struct {
	fetch Fetcher
	index map[string]int64 // file path -> size
	dirs  map[string]map[string]bool
	cache map[string][]byte
	now   func() int64

	// FetchCount counts network fetches (for the lazy-load experiments).
	FetchCount int
	// BytesFetched counts body bytes transferred.
	BytesFetched int64
	// RangeFetches counts byte-range fetches (range-capable fetchers).
	RangeFetches int
}

// BuildIndex serializes a path->size listing in the index.json format
// NewHTTPFS consumes. Use it when staging a server image.
func BuildIndex(files map[string]int64) []byte {
	b, err := json.Marshal(files)
	if err != nil {
		panic("fs: BuildIndex: " + err.Error())
	}
	return b
}

// RangeThreshold is the file size above which a range-capable fetcher
// switches to byte-range fetches: one readahead window's worth of pages.
// Below it, a single whole-body fetch is cheaper than per-window round
// trips.
const RangeThreshold = DefaultReadaheadPages * PageSize

// NewHTTPFS creates an HTTP-backed read-only backend from an index listing
// (JSON object mapping absolute file paths to sizes).
func NewHTTPFS(indexJSON []byte, fetch Fetcher, now func() int64) (*HTTPFS, error) {
	var files map[string]int64
	if err := json.Unmarshal(indexJSON, &files); err != nil {
		return nil, err
	}
	h := &HTTPFS{
		fetch: fetch,
		index: map[string]int64{},
		dirs:  map[string]map[string]bool{"/": {}},
		cache: map[string][]byte{},
		now:   now,
	}
	for p, size := range files {
		p = Clean(p)
		h.index[p] = size
		// Register every ancestor directory.
		for dir := path.Dir(p); ; dir = path.Dir(dir) {
			if h.dirs[dir] == nil {
				h.dirs[dir] = map[string]bool{}
			}
			if dir == "/" {
				break
			}
		}
		h.dirs[path.Dir(p)][path.Base(p)] = false
		for dir := path.Dir(p); dir != "/"; dir = path.Dir(dir) {
			h.dirs[path.Dir(dir)][path.Base(dir)] = true
		}
	}
	return h, nil
}

// Name implements Backend.
func (h *HTTPFS) Name() string { return "httpfs" }

// ReadOnly implements Backend.
func (h *HTTPFS) ReadOnly() bool { return true }

func (h *HTTPFS) statOf(p string) (abi.Stat, abi.Errno) {
	p = Clean(p)
	if _, ok := h.dirs[p]; ok {
		return abi.Stat{Mode: abi.S_IFDIR | 0o555, Nlink: 1}, abi.OK
	}
	if size, ok := h.index[p]; ok {
		return abi.Stat{Mode: abi.S_IFREG | 0o444, Size: size, Nlink: 1}, abi.OK
	}
	return abi.Stat{}, abi.ENOENT
}

// Stat implements Backend. Metadata comes from the index: no network
// round trip — the optimization Browsix added for cheap failed lookups.
func (h *HTTPFS) Stat(p string, cb func(abi.Stat, abi.Errno)) {
	st, err := h.statOf(p)
	cb(st, err)
}

// Lstat implements Backend (no symlinks over HTTP).
func (h *HTTPFS) Lstat(p string, cb func(abi.Stat, abi.Errno)) { h.Stat(p, cb) }

// Open implements Backend: lazily fetches and caches the file body.
func (h *HTTPFS) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	p = Clean(p)
	if flags&abi.O_ACCMODE != abi.O_RDONLY || flags&(abi.O_CREAT|abi.O_TRUNC) != 0 {
		cb(nil, abi.EROFS)
		return
	}
	if _, ok := h.dirs[p]; ok {
		cb(nil, abi.EISDIR)
		return
	}
	if _, ok := h.index[p]; !ok {
		cb(nil, abi.ENOENT)
		return
	}
	if body, ok := h.cache[p]; ok {
		cb(&httpHandle{fs: h, path: p, data: body}, abi.OK)
		return
	}
	if rf, ok := h.fetch.(RangeFetcher); ok && h.index[p] > RangeThreshold {
		// Range-capable server and a big file: open costs nothing; each
		// read becomes a byte-range fetch sized to the requested window
		// (the page cache's miss or readahead span). The VFS page cache
		// above absorbs re-reads, so httpfs keeps no whole-body copy on
		// this path. Files at or below the threshold keep the one-fetch
		// whole-body path — a range round trip per window would cost
		// more than it saves.
		cb(&httpRangeHandle{fs: h, path: p, rf: rf, size: h.index[p]}, abi.OK)
		return
	}
	h.fetch.Fetch(p, func(body []byte, status int) {
		if status != 200 {
			cb(nil, abi.EIO)
			return
		}
		h.FetchCount++
		h.BytesFetched += int64(len(body))
		h.cache[p] = body
		h.index[p] = int64(len(body))
		cb(&httpHandle{fs: h, path: p, data: body}, abi.OK)
	})
}

// Preload fetches every indexed file up-front. This is the *eager*
// behaviour of the original BrowserFS overlay underlay that Browsix
// removed; it exists to power the lazy-vs-eager ablation benchmark.
func (h *HTTPFS) Preload(done func()) {
	paths := make([]string, 0, len(h.index))
	for p := range h.index {
		if _, cached := h.cache[p]; !cached {
			paths = append(paths, p)
		}
	}
	var step func(i int)
	step = func(i int) {
		if i >= len(paths) {
			done()
			return
		}
		p := paths[i]
		h.fetch.Fetch(p, func(body []byte, status int) {
			if status == 200 {
				h.FetchCount++
				h.BytesFetched += int64(len(body))
				h.cache[p] = body
				h.index[p] = int64(len(body))
			}
			step(i + 1)
		})
	}
	step(0)
}

// Readdir implements Backend.
func (h *HTTPFS) Readdir(p string, cb func([]abi.Dirent, abi.Errno)) {
	p = Clean(p)
	children, ok := h.dirs[p]
	if !ok {
		if _, isFile := h.index[p]; isFile {
			cb(nil, abi.ENOTDIR)
		} else {
			cb(nil, abi.ENOENT)
		}
		return
	}
	ents := make([]abi.Dirent, 0, len(children))
	for name, isDir := range children {
		t := abi.DT_REG
		if isDir {
			t = abi.DT_DIR
		}
		ents = append(ents, abi.Dirent{Name: name, Type: t})
	}
	cb(ents, abi.OK)
}

// Mkdir and the other mutating operations fail with EROFS.
func (h *HTTPFS) Mkdir(p string, m uint32, cb func(abi.Errno))  { cb(abi.EROFS) }
func (h *HTTPFS) Rmdir(p string, cb func(abi.Errno))            { cb(abi.EROFS) }
func (h *HTTPFS) Unlink(p string, cb func(abi.Errno))           { cb(abi.EROFS) }
func (h *HTTPFS) Rename(o, n string, cb func(abi.Errno))        { cb(abi.EROFS) }
func (h *HTTPFS) Readlink(p string, cb func(string, abi.Errno)) { cb("", abi.EINVAL) }
func (h *HTTPFS) Symlink(t, l string, cb func(abi.Errno))       { cb(abi.EROFS) }
func (h *HTTPFS) Utimes(p string, a, m int64, cb func(abi.Errno)) {
	cb(abi.EROFS)
}

// httpHandle is an open (fully fetched) HTTP-backed file.
type httpHandle struct {
	fs   *HTTPFS
	path string
	data []byte
}

func (h *httpHandle) Pread(off int64, n int, cb func([]byte, abi.Errno)) {
	if off >= int64(len(h.data)) {
		cb(nil, abi.OK)
		return
	}
	end := off + int64(n)
	if end > int64(len(h.data)) {
		end = int64(len(h.data))
	}
	out := make([]byte, end-off)
	copy(out, h.data[off:end])
	cb(out, abi.OK)
}

// PreadSlice implements SliceReader: the body is fully resident, so the
// page cache's fault path reads it through a stable subslice and copies
// exactly once, into a fresh cache page — no per-read staging
// buffer. (zipfs handles share this type, so decompressed members get
// the same path.) Public Pread/Preadv still copy: only the page cache,
// which copies before the callback returns, gets the aliased view.
func (h *httpHandle) PreadSlice(off int64, n int) ([]byte, bool) {
	if off >= int64(len(h.data)) || off < 0 {
		return nil, true
	}
	end := off + int64(n)
	if end > int64(len(h.data)) {
		end = int64(len(h.data))
	}
	return h.data[off:end:end], true
}

func (h *httpHandle) Pwrite(int64, []byte, func(int, abi.Errno)) {
	panic("fs: pwrite on read-only http handle")
}

// Preadv implements FileHandle: the body is already resident, so each
// requested length is sliced out in one pass. Segments are copies — the
// cached body is shared by every handle on this file (and the backend
// cache itself), so aliasing it out to callers would let a buggy caller
// corrupt the cache.
func (h *httpHandle) Preadv(off int64, lens []int, cb func([][]byte, abi.Errno)) {
	var segs [][]byte
	pos := off
	for _, n := range lens {
		if pos >= int64(len(h.data)) {
			break
		}
		if n <= 0 {
			continue // zero-length iovecs are legal mid-list
		}
		end := pos + int64(n)
		if end > int64(len(h.data)) {
			end = int64(len(h.data))
		}
		seg := make([]byte, end-pos)
		copy(seg, h.data[pos:end])
		segs = append(segs, seg)
		pos = end
	}
	cb(segs, abi.OK)
}

func (h *httpHandle) Pwritev(int64, [][]byte, func(int, abi.Errno)) {
	panic("fs: pwritev on read-only http handle")
}

func (h *httpHandle) Stat(cb func(abi.Stat, abi.Errno)) {
	cb(abi.Stat{Mode: abi.S_IFREG | 0o444, Size: int64(len(h.data)), Nlink: 1}, abi.OK)
}

func (h *httpHandle) Truncate(int64, func(abi.Errno)) {
	panic("fs: truncate on read-only http handle")
}

func (h *httpHandle) Close(cb func(abi.Errno)) { cb(abi.OK) }

// httpRangeHandle is an open file on a range-capable server: nothing is
// resident; every read is an HTTP Range request for exactly the bytes
// the caller (normally the page cache's miss/readahead path) asked for.
type httpRangeHandle struct {
	fs   *HTTPFS
	path string
	rf   RangeFetcher
	size int64 // index size snapshot (read-only backend)
}

func (h *httpRangeHandle) Pread(off int64, n int, cb func([]byte, abi.Errno)) {
	if off >= h.size || n <= 0 {
		cb(nil, abi.OK)
		return
	}
	want := int64(n)
	if off+want > h.size {
		want = h.size - off
	}
	if body, ok := h.fs.cache[h.path]; ok {
		// A prior 200 fallback cached the whole body: serve windows
		// from it with no further network traffic.
		cb(sliceBody(body, off, want), abi.OK)
		return
	}
	h.rf.FetchRange(h.path, off, want, func(body []byte, status int) {
		switch status {
		case 206:
			// Partial content: the body IS the requested range. It is
			// copied like every other read: the fetcher may hand out a
			// view of the server's bytes.
			if int64(len(body)) > want {
				body = body[:want]
			}
			h.fs.FetchCount++
			h.fs.RangeFetches++
			h.fs.BytesFetched += int64(len(body))
			cb(sliceBody(body, 0, want), abi.OK)
		case 200:
			// The server ignored Range and sent the whole file (legal
			// HTTP). Account the full transfer and cache the body like
			// the whole-body path, so later windows on this file never
			// re-download it.
			h.fs.FetchCount++
			h.fs.BytesFetched += int64(len(body))
			h.fs.cache[h.path] = body
			h.fs.index[h.path] = int64(len(body))
			cb(sliceBody(body, off, want), abi.OK)
		default:
			cb(nil, abi.EIO)
		}
	})
}

// sliceBody copies the window [off, off+want) out of a body.
func sliceBody(body []byte, off, want int64) []byte {
	if off >= int64(len(body)) {
		return nil
	}
	end := off + want
	if end > int64(len(body)) {
		end = int64(len(body))
	}
	out := make([]byte, end-off)
	copy(out, body[off:end])
	return out
}

func (h *httpRangeHandle) Pwrite(int64, []byte, func(int, abi.Errno)) {
	panic("fs: pwrite on read-only http handle")
}

func (h *httpRangeHandle) Pwritev(int64, [][]byte, func(int, abi.Errno)) {
	panic("fs: pwritev on read-only http handle")
}

// Preadv implements FileHandle as one coalesced range fetch.
func (h *httpRangeHandle) Preadv(off int64, lens []int, cb func([][]byte, abi.Errno)) {
	genericPreadv(h, off, lens, cb)
}

func (h *httpRangeHandle) Stat(cb func(abi.Stat, abi.Errno)) {
	cb(abi.Stat{Mode: abi.S_IFREG | 0o444, Size: h.size, Nlink: 1}, abi.OK)
}

func (h *httpRangeHandle) Truncate(int64, func(abi.Errno)) {
	panic("fs: truncate on read-only http handle")
}

func (h *httpRangeHandle) Close(cb func(abi.Errno)) { cb(abi.OK) }
