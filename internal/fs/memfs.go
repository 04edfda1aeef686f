package fs

import (
	"strings"

	"repro/internal/abi"
)

// MemFS is BrowserFS's InMemory backend: a synchronous in-memory tree.
// All callbacks complete before the call returns.
type MemFS struct {
	root *memNode
	now  func() int64
	ro   bool
	name string

	// ino allocation is per-backend: a process-wide counter would make
	// inode numbers depend on how concurrently-running Instances
	// interleave, breaking the fleet's serial-vs-parallel determinism.
	lastIno uint64
}

type memNode struct {
	mode     uint32
	data     []byte
	target   string // symlink target
	children map[string]*memNode
	mtime    int64
	atime    int64
	ctime    int64
	ino      uint64
	// shared marks data as aliasing bytes adopted by WriteFileShared or
	// handed out by ReadFileShared, which the node must copy before
	// writing in place.
	shared bool
}

func (m *MemFS) nextIno() uint64 { m.lastIno++; return m.lastIno }

// NewMemFS creates an empty writable in-memory backend.
func NewMemFS(now func() int64) *MemFS {
	t := now()
	m := &MemFS{now: now, name: "memfs"}
	m.root = &memNode{mode: abi.S_IFDIR | 0o755, children: map[string]*memNode{}, mtime: t, ino: m.nextIno()}
	return m
}

// Name implements Backend.
func (m *MemFS) Name() string { return m.name }

// ReadOnly implements Backend.
func (m *MemFS) ReadOnly() bool { return m.ro }

// SetReadOnly freezes the backend (used to model read-only images).
func (m *MemFS) SetReadOnly() { m.ro = true; m.name = "memfs-ro" }

// lookup walks to the node at p; returns nil if missing. If parent is
// true, returns the parent directory and the final name instead.
func (m *MemFS) lookup(p string) *memNode {
	p = Clean(p)
	n := m.root
	for i, j := comp(p, 0); i < len(p); i, j = comp(p, j) {
		if n == nil || n.children == nil {
			return nil
		}
		n = n.children[p[i:j]]
	}
	return n
}

func (m *MemFS) lookupParent(p string) (*memNode, string) {
	p = Clean(p)
	k := strings.LastIndexByte(p, '/')
	return m.lookup(p[:max(k, 1)]), p[k+1:]
}

func (n *memNode) stat() abi.Stat {
	return abi.Stat{
		Mode:  n.mode,
		Size:  int64(len(n.data)),
		Mtime: n.mtime,
		Atime: n.atime,
		Ctime: n.ctime,
		Nlink: 1,
		Ino:   n.ino,
	}
}

func (n *memNode) isDir() bool  { return n.mode&abi.S_IFMT == abi.S_IFDIR }
func (n *memNode) isLink() bool { return n.mode&abi.S_IFMT == abi.S_IFLNK }

// Stat implements Backend. MemFS holds no interior symlinks by the time
// Stat is called (the FileSystem resolves trailing links), so Stat and
// Lstat coincide except for the trailing-link case.
func (m *MemFS) Stat(p string, cb func(abi.Stat, abi.Errno)) { m.Lstat(p, cb) }

// Lstat implements Backend.
func (m *MemFS) Lstat(p string, cb func(abi.Stat, abi.Errno)) {
	n := m.lookup(p)
	if n == nil {
		cb(abi.Stat{}, abi.ENOENT)
		return
	}
	cb(n.stat(), abi.OK)
}

// Open implements Backend.
func (m *MemFS) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	n := m.lookup(p)
	wantsWrite := flags&abi.O_ACCMODE != abi.O_RDONLY || flags&(abi.O_CREAT|abi.O_TRUNC) != 0
	if m.ro && wantsWrite {
		cb(nil, abi.EROFS)
		return
	}
	if n == nil {
		if flags&abi.O_CREAT == 0 {
			cb(nil, abi.ENOENT)
			return
		}
		parent, base := m.lookupParent(p)
		if parent == nil || !parent.isDir() {
			cb(nil, abi.ENOENT)
			return
		}
		t := m.now()
		n = &memNode{mode: abi.S_IFREG | (mode & 0o777), mtime: t, ctime: t, ino: m.nextIno()}
		parent.children[base] = n
		parent.mtime = t
	} else {
		if flags&(abi.O_CREAT|abi.O_EXCL) == abi.O_CREAT|abi.O_EXCL {
			cb(nil, abi.EEXIST)
			return
		}
		if n.isDir() {
			if flags&abi.O_ACCMODE != abi.O_RDONLY {
				cb(nil, abi.EISDIR)
				return
			}
			if flags&abi.O_DIRECTORY != 0 || true {
				// Opening a directory yields a handle usable for fstat.
				cb(&memHandle{fs: m, n: n}, abi.OK)
				return
			}
		}
		if flags&abi.O_DIRECTORY != 0 {
			cb(nil, abi.ENOTDIR)
			return
		}
		if flags&abi.O_TRUNC != 0 {
			n.data, n.shared = nil, false
			n.mtime = m.now()
		}
	}
	cb(&memHandle{fs: m, n: n}, abi.OK)
}

// Readdir implements Backend.
func (m *MemFS) Readdir(p string, cb func([]abi.Dirent, abi.Errno)) {
	n := m.lookup(p)
	if n == nil {
		cb(nil, abi.ENOENT)
		return
	}
	if !n.isDir() {
		cb(nil, abi.ENOTDIR)
		return
	}
	ents := make([]abi.Dirent, 0, len(n.children))
	for name, c := range n.children {
		ents = append(ents, abi.Dirent{Name: name, Type: abi.DirentTypeFromMode(c.mode), Ino: c.ino})
	}
	cb(ents, abi.OK)
}

// Mkdir implements Backend.
func (m *MemFS) Mkdir(p string, mode uint32, cb func(abi.Errno)) {
	if m.ro {
		cb(abi.EROFS)
		return
	}
	if m.lookup(p) != nil {
		cb(abi.EEXIST)
		return
	}
	parent, base := m.lookupParent(p)
	if parent == nil {
		cb(abi.ENOENT)
		return
	}
	if !parent.isDir() {
		cb(abi.ENOTDIR)
		return
	}
	t := m.now()
	parent.children[base] = &memNode{mode: abi.S_IFDIR | (mode & 0o777), children: map[string]*memNode{}, mtime: t, ctime: t, ino: m.nextIno()}
	parent.mtime = t
	cb(abi.OK)
}

// Rmdir implements Backend.
func (m *MemFS) Rmdir(p string, cb func(abi.Errno)) {
	if m.ro {
		cb(abi.EROFS)
		return
	}
	n := m.lookup(p)
	if n == nil {
		cb(abi.ENOENT)
		return
	}
	if !n.isDir() {
		cb(abi.ENOTDIR)
		return
	}
	if len(n.children) > 0 {
		cb(abi.ENOTEMPTY)
		return
	}
	if Clean(p) == "/" {
		cb(abi.EBUSY)
		return
	}
	parent, base := m.lookupParent(p)
	delete(parent.children, base)
	parent.mtime = m.now()
	cb(abi.OK)
}

// Unlink implements Backend.
func (m *MemFS) Unlink(p string, cb func(abi.Errno)) {
	if m.ro {
		cb(abi.EROFS)
		return
	}
	n := m.lookup(p)
	if n == nil {
		cb(abi.ENOENT)
		return
	}
	if n.isDir() {
		cb(abi.EISDIR)
		return
	}
	parent, base := m.lookupParent(p)
	delete(parent.children, base)
	parent.mtime = m.now()
	cb(abi.OK)
}

// Rename implements Backend.
func (m *MemFS) Rename(oldp, newp string, cb func(abi.Errno)) {
	if m.ro {
		cb(abi.EROFS)
		return
	}
	n := m.lookup(oldp)
	if n == nil {
		cb(abi.ENOENT)
		return
	}
	nparent, nbase := m.lookupParent(newp)
	if nparent == nil || !nparent.isDir() {
		cb(abi.ENOENT)
		return
	}
	if existing := nparent.children[nbase]; existing != nil && existing.isDir() {
		if len(existing.children) > 0 {
			cb(abi.ENOTEMPTY)
			return
		}
	}
	oparent, obase := m.lookupParent(oldp)
	delete(oparent.children, obase)
	nparent.children[nbase] = n
	t := m.now()
	oparent.mtime, nparent.mtime = t, t
	cb(abi.OK)
}

// Readlink implements Backend.
func (m *MemFS) Readlink(p string, cb func(string, abi.Errno)) {
	n := m.lookup(p)
	if n == nil {
		cb("", abi.ENOENT)
		return
	}
	if !n.isLink() {
		cb("", abi.EINVAL)
		return
	}
	cb(n.target, abi.OK)
}

// Symlink implements Backend.
func (m *MemFS) Symlink(target, linkp string, cb func(abi.Errno)) {
	if m.ro {
		cb(abi.EROFS)
		return
	}
	if m.lookup(linkp) != nil {
		cb(abi.EEXIST)
		return
	}
	parent, base := m.lookupParent(linkp)
	if parent == nil || !parent.isDir() {
		cb(abi.ENOENT)
		return
	}
	t := m.now()
	parent.children[base] = &memNode{mode: abi.S_IFLNK | 0o777, target: target, mtime: t, ctime: t, ino: m.nextIno()}
	cb(abi.OK)
}

// Utimes implements Backend.
func (m *MemFS) Utimes(p string, atime, mtime int64, cb func(abi.Errno)) {
	if m.ro {
		cb(abi.EROFS)
		return
	}
	n := m.lookup(p)
	if n == nil {
		cb(abi.ENOENT)
		return
	}
	n.atime, n.mtime = atime, mtime
	cb(abi.OK)
}

// memHandle is an open file on a MemFS. seg is the one-segment list
// Preadv answers with.
type memHandle struct {
	fs  *MemFS
	n   *memNode
	seg [1][]byte
}

// span returns the file's bytes in [off, off+n), clamped to its end, as
// a capacity-limited view: nil at EOF, EISDIR for a directory.
func (h *memHandle) span(off int64, n int) ([]byte, abi.Errno) {
	if h.n.isDir() {
		return nil, abi.EISDIR
	}
	data := h.n.data
	if off >= int64(len(data)) || n <= 0 {
		return nil, abi.OK
	}
	end := min(off+int64(n), int64(len(data)))
	return data[off:end:end], abi.OK
}

// Pread implements FileHandle with a copy of the bytes read.
func (h *memHandle) Pread(off int64, n int, cb func([]byte, abi.Errno)) {
	b, err := h.span(off, n)
	if b != nil {
		b = append([]byte(nil), b...)
	}
	cb(b, err)
}

// readShared implements sharedReader: the file's bytes, capacity-limited
// and marked shared so the node copies them before writing in place.
func (h *memHandle) readShared() ([]byte, abi.Errno) {
	if h.n.isDir() {
		return nil, abi.EISDIR
	}
	h.n.shared = true
	return h.n.data[:len(h.n.data):len(h.n.data)], abi.OK
}

// writable returns n's bytes ready for an in-place write ending at end.
// Bytes that still alias shared bytes are copied first (copy-on-write).
// A write that extends the file past its capacity at least doubles it,
// so an append loop allocates under twice its final capacity in all,
// not O(n²) bytes. Bytes an extension re-exposes inside the capacity (a
// shrinking Truncate keeps it) are zeroed, so a hole reads as zeros.
func (n *memNode) writable(end int64) []byte {
	if n.shared {
		n.data, n.shared = append([]byte(nil), n.data...), false
	}
	size := int64(len(n.data))
	switch {
	case end <= size:
	case end <= int64(cap(n.data)):
		n.data = n.data[:end]
		clear(n.data[size:])
	default:
		grown := make([]byte, end, max(end, 2*int64(cap(n.data))))
		copy(grown, n.data)
		n.data = grown
	}
	return n.data
}

// adoptShared implements sharedAdopter: data becomes the file's contents
// by reference, copied only before the first in-place write.
func (h *memHandle) adoptShared(data []byte) {
	h.n.data, h.n.shared = data[:len(data):len(data)], true
	h.n.mtime = h.fs.now()
}

// Pwrite implements FileHandle.
func (h *memHandle) Pwrite(off int64, data []byte, cb func(int, abi.Errno)) {
	if h.fs.ro {
		cb(0, abi.EROFS)
		return
	}
	if h.n.isDir() {
		cb(0, abi.EISDIR)
		return
	}
	end := off + int64(len(data))
	copy(h.n.writable(end)[off:end], data)
	h.n.mtime = h.fs.now()
	cb(len(data), abi.OK)
}

// Preadv implements FileHandle: one bounds check, and the file's own
// bytes as a single view in the handle's segment list, which, like a
// cache page view, is valid only until cb returns and must never be
// written. A read builds no list, no closure and no copy.
func (h *memHandle) Preadv(off int64, lens []int, cb func([][]byte, abi.Errno)) {
	total := 0
	for _, n := range lens {
		total += n
	}
	b, err := h.span(off, total)
	if b == nil {
		cb(nil, err)
		return
	}
	h.seg[0] = b
	cb(h.seg[:], abi.OK)
}

// Pwritev implements FileHandle: the file grows once, then each buffer
// lands directly in the node's data — no coalescing copy.
func (h *memHandle) Pwritev(off int64, bufs [][]byte, cb func(int, abi.Errno)) {
	if h.fs.ro {
		cb(0, abi.EROFS)
		return
	}
	if h.n.isDir() {
		cb(0, abi.EISDIR)
		return
	}
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	buf := h.n.writable(off + total)
	pos := off
	for _, b := range bufs {
		copy(buf[pos:], b)
		pos += int64(len(b))
	}
	h.n.mtime = h.fs.now()
	cb(int(total), abi.OK)
}

// Stat implements FileHandle.
func (h *memHandle) Stat(cb func(abi.Stat, abi.Errno)) { cb(h.n.stat(), abi.OK) }

// Truncate implements FileHandle.
func (h *memHandle) Truncate(size int64, cb func(abi.Errno)) {
	if h.fs.ro {
		cb(abi.EROFS)
		return
	}
	if size <= int64(len(h.n.data)) {
		h.n.data = h.n.data[:size] // a shared alias stays shared
	} else {
		h.n.writable(size)
	}
	h.n.mtime = h.fs.now()
	cb(abi.OK)
}

// Close implements FileHandle.
func (h *memHandle) Close(cb func(abi.Errno)) { cb(abi.OK) }
