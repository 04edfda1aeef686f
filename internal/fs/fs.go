// Package fs reimplements the file-system layer Browsix builds on: Doppio's
// BrowserFS plus the Browsix extensions described in §3.6 of the paper,
// grown into a real VFS core:
//
//   - a per-component namei walker (symlinks — intermediate and trailing —
//     `..`, trailing slashes, and mount crossings resolved one component
//     at a time, depth-limited),
//   - a dentry/attribute cache with negative entries, invalidated on every
//     mutating operation, so repeated stat/open of hot paths never re-hit
//     a backend,
//   - a page cache with sequential readahead fronting the network and
//     read-only backends (httpfs, zipfs, overlay lower layers),
//   - vectored file handles (Preadv/Pwritev), so the iovec frames the ring
//     transport carries through the kernel reach storage without
//     coalescing copies.
//
// Like BrowserFS, the API is callback-based (continuation-passing style):
// the kernel runs on the browser's main thread and can never block, so
// every operation takes a completion callback. Purely in-memory backends
// complete synchronously (the callback runs before the call returns);
// network-backed backends complete later via simulator events.
//
// The package provides:
//   - a mount table combining multiple backends into one hierarchy,
//   - an in-memory backend (memfs),
//   - a read-only HTTP-backed backend with an index file and lazy per-file
//     fetching (httpfs — BrowserFS's XmlHttpRequest backend),
//   - a read-only zip-file backend (zipfs),
//   - an overlay backend with lazy copy-up, a deletion log, and the
//     multi-process locking Browsix added (overlayfs).
package fs

import (
	"path"
	"sort"
	"strings"

	"repro/internal/abi"
)

// FileHandle is an open file. Reads and writes are positional, as in
// BrowserFS; the kernel layers file offsets on top.
type FileHandle interface {
	// Pread reads up to n bytes at off. A short or empty result at EOF
	// is not an error. The result belongs to the caller: it is never a
	// view of the file's or a cache's bytes.
	Pread(off int64, n int, cb func([]byte, abi.Errno))
	// Pwrite writes data at off, returning bytes written.
	Pwrite(off int64, data []byte, cb func(int, abi.Errno))
	// Preadv reads up to sum(lens) bytes at off, returning the data as
	// one or more segments. Segment boundaries need not match lens —
	// callers scatter the stream themselves — but the total never
	// exceeds sum(lens). A nil result at EOF is not an error. The
	// segments, and the list holding them, may be views of cache pages
	// or of a memfs file's bytes, valid only until cb returns: a caller
	// that keeps the bytes copies them inside cb, and never writes them.
	Preadv(off int64, lens []int, cb func([][]byte, abi.Errno))
	// Pwritev writes the buffers back to back starting at off, without
	// requiring the caller to coalesce them, returning bytes written.
	Pwritev(off int64, bufs [][]byte, cb func(int, abi.Errno))
	// Stat describes the open file.
	Stat(cb func(abi.Stat, abi.Errno))
	// Truncate sets the file size.
	Truncate(size int64, cb func(abi.Errno))
	// Close releases the handle.
	Close(cb func(abi.Errno))
}

// Backend is one mounted file system implementation. Paths are absolute
// within the backend ("/" is the backend's root) and already cleaned.
type Backend interface {
	Name() string
	ReadOnly() bool
	Stat(p string, cb func(abi.Stat, abi.Errno))
	// Lstat is like Stat but does not follow a trailing symlink.
	Lstat(p string, cb func(abi.Stat, abi.Errno))
	Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno))
	Readdir(p string, cb func([]abi.Dirent, abi.Errno))
	Mkdir(p string, mode uint32, cb func(abi.Errno))
	Rmdir(p string, cb func(abi.Errno))
	Unlink(p string, cb func(abi.Errno))
	Rename(oldp, newp string, cb func(abi.Errno))
	Readlink(p string, cb func(string, abi.Errno))
	Symlink(target, linkp string, cb func(abi.Errno))
	Utimes(p string, atime, mtime int64, cb func(abi.Errno))
}

// mount is one entry in the mount table.
type mount struct {
	prefix  string // "/", "/usr/share/texlive", ...
	backend Backend
}

// FileSystem is the kernel's VFS: a mount table over backends, a namei
// walker, and the dentry/page caches.
type FileSystem struct {
	mounts []mount // sorted by descending prefix length
	now    func() int64

	dc             *dcache
	pc             *pageCache
	feat           Features
	readaheadPages int

	walkers abi.FreeList[walker] // finished walks' records, for reuse
}

// NewFileSystem creates a file system whose root is the given backend.
// now supplies virtual time for mtimes. Caching is on by default.
func NewFileSystem(root Backend, now func() int64) *FileSystem {
	f := &FileSystem{
		now:            now,
		dc:             newDcache(),
		pc:             newPageCache(),
		readaheadPages: DefaultReadaheadPages,
	}
	f.mounts = []mount{{prefix: "/", backend: root}}
	return f
}

// Features selects which of the VFS's optional mechanisms run. The zero
// value is production: every mechanism on. Each field turns one off for
// the differential tests and ablations; none changes the bytes a reader
// sees, only how many backend calls happen and where pages live. Every
// write reaches its backend before it returns, whatever the features.
type Features struct {
	// NoCaches turns off the dentry and page caches.
	NoCaches bool
	// NoDedup turns off the content-addressed sharing tier: every cached
	// page takes a private slot. Pages already resident keep their class.
	NoDedup bool
}

// SetFeatures selects the mechanisms that run (everything is on after
// NewFileSystem). Toggling the caches flushes them.
func (f *FileSystem) SetFeatures(ft Features) {
	old := f.feat
	f.feat = ft
	f.pc.dedupOff = ft.NoDedup
	if ft.NoCaches != old.NoCaches {
		f.FlushCaches()
	}
}

// SetReadahead sets the sequential readahead window in pages (0 disables
// readahead; the page cache itself stays on).
func (f *FileSystem) SetReadahead(pages int) { f.readaheadPages = pages }

// FlushCaches drops every cached dentry and page (cold-cache runs). The
// caches hold no unwritten data, so nothing is lost.
func (f *FileSystem) FlushCaches() {
	f.dc.flush()
	f.pc.flush()
}

// CacheStats reports cache effectiveness counters for the hit-rate
// experiments (EXPERIMENTS.md).
type CacheStats struct {
	DentryHits    int64 // per-component positive hits
	DentryMisses  int64 // per-component misses (backend consulted)
	NegativeHits  int64 // per-component negative (ENOENT) hits
	WalkHits      int64 // whole-walk fast-path hits
	ReaddirHits   int64 // cached directory-listing hits
	ReaddirMisses int64 // directory listings built from backends
	PageHits      int64 // page-cache read hits
	PageMisses    int64 // page-cache read misses (backend consulted)
	ReadaheadOps  int64 // completed readahead backend reads
	PageBytes     int64 // bytes currently cached
	DentryEntries int   // dentries currently cached
	WalkNodes     int   // radix nodes in the whole-walk tier

	// BufferedWrites and FlushWrites are always zero: every write
	// reaches its backend before it returns. They stay because the
	// benchmark's per-layer report reads them.
	BufferedWrites int64
	FlushWrites    int64

	// Content-addressed dedup counters (the cross-tenant sharing tier).
	CachedPages int64 // resident cached pages (logical, shared + private)
	DedupPages  int64 // resident pages referencing shared dedup slots
	SharedBytes int64 // bytes of those shared references
	DedupHits   int64 // dedup index hits since boot
	DedupStores int64 // dedup-eligible page stores since boot
}

// CacheStats returns a snapshot of the cache counters. Every field is
// read through an atomic, so the snapshot is safe to take from the host
// while the Instance runs on another thread (per-field reads are atomic;
// the struct as a whole is a loose snapshot, not a consistent cut).
func (f *FileSystem) CacheStats() CacheStats {
	return CacheStats{
		DentryHits:    f.dc.hits.Load(),
		DentryMisses:  f.dc.misses.Load(),
		NegativeHits:  f.dc.negHits.Load(),
		WalkHits:      f.dc.walkHits.Load(),
		ReaddirHits:   f.dc.dirHits.Load(),
		ReaddirMisses: f.dc.dirMisses.Load(),
		PageHits:      f.pc.hits.Load(),
		PageMisses:    f.pc.misses.Load(),
		ReadaheadOps:  f.pc.readaheads.Load(),
		PageBytes:     f.pc.bytes.Load(),
		DentryEntries: int(f.dc.entryCount.Load()),
		WalkNodes:     int(f.dc.walkNodeCount.Load()),

		CachedPages: f.pc.cachedPages.Load(),
		DedupPages:  f.pc.dedupPages.Load(),
		SharedBytes: f.pc.sharedBytes.Load(),
		DedupHits:   f.pc.dedupHits.Load(),
		DedupStores: f.pc.dedupStores.Load(),
	}
}

// Mount attaches a backend at prefix (an absolute, existing-or-not path).
// Longest-prefix wins at resolution, like BrowserFS's MountableFileSystem.
// Mounting changes what every path resolves to, so the caches flush.
func (f *FileSystem) Mount(prefix string, b Backend) {
	prefix = Clean(prefix)
	f.mounts = append(f.mounts, mount{prefix: prefix, backend: b})
	sort.SliceStable(f.mounts, func(i, j int) bool {
		return len(f.mounts[i].prefix) > len(f.mounts[j].prefix)
	})
	f.FlushCaches()
}

// Mounts lists mount points (diagnostics, and the terminal's `mount`).
func (f *FileSystem) Mounts() []string {
	out := make([]string, len(f.mounts))
	for i, m := range f.mounts {
		out[i] = m.prefix + " (" + m.backend.Name() + ")"
	}
	return out
}

// MountPrefixes lists just the mount-point paths, longest first.
func (f *FileSystem) MountPrefixes() []string {
	out := make([]string, len(f.mounts))
	for i, m := range f.mounts {
		out[i] = m.prefix
	}
	return out
}

// Clean normalizes an absolute path: it forces a leading slash and
// collapses ".", "..", and repeated slashes. ".." components that would
// escape the root are clamped at "/" (trailing-slash semantics are
// handled by the walker, which sees the raw path).
func Clean(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// canonical reports whether p is already what Clean makes of it: absolute,
// with no empty, "." or ".." component and no trailing slash ("/" itself
// is canonical).
func canonical(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	if p == "/" {
		return true
	}
	for i := 0; i < len(p); {
		j := i + 1
		for j < len(p) && p[j] != '/' {
			j++
		}
		switch p[i+1 : j] {
		case "", ".", "..":
			return false
		}
		i = j
	}
	return true
}

// Abs resolves a possibly-relative path against cwd, normalizing
// slashes and "." while preserving both ".." components (the walker
// resolves them against symlink *targets*, which a lexical Clean cannot)
// and a trailing slash (the walker gives it its POSIX directory
// meaning). A path already in that form comes back unchanged; any other
// is built in one pass.
func Abs(cwd, p string) string {
	if p != "" && p[0] == '/' && (canonical(p) || absDir(p)) {
		return p
	}
	var b strings.Builder
	b.Grow(len(cwd) + 1 + len(p))
	if p == "" || p[0] != '/' {
		appendComps(&b, cwd)
	}
	appendComps(&b, p)
	if b.Len() == 0 {
		return "/"
	}
	if hadTrailingSlash(p) {
		b.WriteByte('/') // keep the directory requirement ("p/" and "p/.")
	}
	return b.String()
}

// absDir reports whether p is a canonical path other than "/" plus one
// trailing slash, which Abs keeps.
func absDir(p string) bool {
	return len(p) > 2 && p[len(p)-1] == '/' && canonical(p[:len(p)-1])
}

// appendComps writes "/c" to b for each component c of p, dropping
// empty and "." components and keeping "..".
func appendComps(b *strings.Builder, p string) {
	for i, j := comp(p, 0); i < len(p); i, j = comp(p, j) {
		b.WriteByte('/')
		b.WriteString(p[i:j])
	}
}

// SyscallPath is Abs for a path a process passes to a system call. Abs
// joins an empty p to cwd, as a lexical join does, but an empty pathname
// names no file (POSIX gives it ENOENT): here it stays "", which every
// FileSystem operation answers with ENOENT. Kernel and host syscall
// layers share this so the transports cannot diverge.
func SyscallPath(cwd, p string) string {
	if p == "" {
		return ""
	}
	return Abs(cwd, p)
}

// resolveMount finds the backend owning p and p's path within it. A
// canonical p is not cleaned again, and on the root mount it is its own
// backend path.
func (f *FileSystem) resolveMount(p string) (Backend, string) {
	if !canonical(p) {
		p = Clean(p)
	}
	for _, m := range f.mounts {
		switch {
		case p == m.prefix:
			return m.backend, "/"
		case m.prefix == "/":
			return m.backend, p
		case strings.HasPrefix(p, m.prefix) && p[len(m.prefix)] == '/':
			return m.backend, p[len(m.prefix):]
		}
	}
	// Unreachable: the root mount matches everything.
	last := f.mounts[len(f.mounts)-1]
	return last.backend, p
}

// ---------------------------------------------------------------------------
// Cache invalidation. Every mutating operation lands here.
// ---------------------------------------------------------------------------

// invalidatePath drops the dentry, walk, and page caches for one path
// (content or attributes changed).
func (f *FileSystem) invalidatePath(p string) {
	f.dc.drop(p)
	f.pc.drop(p)
}

// invalidateEntry drops a path and its parent directory (creation or
// removal changes the parent's mtime and the child's existence).
func (f *FileSystem) invalidateEntry(p, parent string) {
	f.dc.drop(p)
	f.dc.drop(parent)
	f.pc.drop(p)
}

// invalidateTree drops a path, its parent, and everything below the path
// (directory rename/removal).
func (f *FileSystem) invalidateTree(p, parent string) {
	f.dc.dropTree(p)
	f.dc.drop(parent)
	f.pc.dropTree(p)
}

// ---------------------------------------------------------------------------
// VFS operations. Every path-taking operation resolves through the namei
// walker; results and attributes come from the caches when warm.
// ---------------------------------------------------------------------------

// Stat stats a path, following symlinks. Every transport's stat, lstat
// and access resolve here, one path per call.
func (f *FileSystem) Stat(p string, cb func(abi.Stat, abi.Errno)) {
	f.statWalk(p, true, cb)
}

// statWalk walks p and returns its attributes.
func (f *FileSystem) statWalk(p string, follow bool, cb func(abi.Stat, abi.Errno)) {
	f.walk(p, walkOpts{follow: follow}, func(e walkEnt) {
		if e.err != abi.OK {
			cb(abi.Stat{}, e.err)
			return
		}
		cb(e.st, abi.OK)
	})
}

// Resolve walks p (following symlinks) and reports the canonical,
// symlink-free absolute path of the result along with its attributes —
// what chdir must store so later relative lookups agree with what was
// validated.
func (f *FileSystem) Resolve(p string, cb func(string, abi.Stat, abi.Errno)) {
	f.walk(p, walkOpts{follow: true}, func(e walkEnt) {
		if e.err != abi.OK {
			cb("", abi.Stat{}, e.err)
			return
		}
		cb(e.path, e.st, abi.OK)
	})
}

// Lstat stats a path without following a trailing symlink.
func (f *FileSystem) Lstat(p string, cb func(abi.Stat, abi.Errno)) {
	f.statWalk(p, false, cb)
}

// Open opens (and with O_CREAT possibly creates) a file. Read-only opens
// on cacheable backends return page-cached handles whose backend handle
// is opened lazily; write-capable handles invalidate the caches as they
// mutate.
func (f *FileSystem) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	wantsWrite := flags&abi.O_ACCMODE != abi.O_RDONLY || flags&(abi.O_CREAT|abi.O_TRUNC) != 0
	f.walk(p, walkOpts{follow: true}, func(e walkEnt) {
		switch {
		case e.err == abi.OK:
			if flags&abi.O_DIRECTORY != 0 && !e.st.IsDir() {
				cb(nil, abi.ENOTDIR)
				return
			}
			if e.st.IsRegular() && !wantsWrite && !f.feat.NoCaches && cacheableBackend(e.backend) {
				b, rel := e.backend, e.rel
				ph := &pagedHandle{
					fs:    f,
					path:  e.path,
					st:    e.st,
					gen:   f.pc.gen(e.path),
					dedup: dedupableBackend(e.backend),
					open:  func(icb func(FileHandle, abi.Errno)) { b.Open(rel, flags, mode, icb) },
				}
				if b.ReadOnly() {
					// Nothing can unlink beneath a read-only backend, so
					// the backend open is safely deferred to the first
					// page miss — a fully cached hot file is reopened
					// with zero backend calls.
					cb(ph, abi.OK)
					return
				}
				// Mutable backend (overlay): open eagerly so the handle
				// keeps working if the path is unlinked afterwards.
				ph.ensureInner(func(_ FileHandle, err abi.Errno) {
					if err != abi.OK {
						cb(nil, err)
						return
					}
					cb(ph, abi.OK)
				})
				return
			}
			if wantsWrite {
				f.invalidatePath(e.path)
			}
			f.openAt(e, flags, mode, wantsWrite, cb)
		case e.err == abi.ENOENT && e.canCreate && flags&abi.O_CREAT != 0:
			if hadTrailingSlash(p) {
				// open("missing/", O_CREAT): only a directory could
				// satisfy the trailing slash; open cannot create one.
				cb(nil, abi.EISDIR)
				return
			}
			f.invalidateEntry(e.path, e.parent)
			f.openAt(e, flags, mode, true, cb)
		default:
			cb(nil, e.err)
		}
	})
}

// openAt opens e's path on its backend and wraps the handle so writes
// keep invalidating the caches for the canonical path. Mutating opens
// (create/truncate/write) invalidate again on completion — the open may
// have been asynchronous, and a concurrent lookup could have re-cached
// pre-mutation state mid-flight.
func (f *FileSystem) openAt(e walkEnt, flags int, mode uint32, mutates bool, cb func(FileHandle, abi.Errno)) {
	e.backend.Open(e.rel, flags, mode, func(h FileHandle, err abi.Errno) {
		if mutates {
			f.invalidateEntry(e.path, e.parent)
		}
		if err != abi.OK {
			cb(nil, err)
			return
		}
		cb(&invalHandle{FileHandle: h, fs: f, path: e.path}, abi.OK)
	})
}

// Readdir lists a directory, synthesizing entries for mount points at or
// below it — `ls /` shows /usr even when the only thing under /usr is a
// mount three levels down and no backend has the directory. Complete
// listings are cached in the dentry layer (keyed by canonical path) and
// invalidated by the same hooks every mutating operation already runs,
// so a stat storm's getdents — or fs.Glob on the public facade — never
// re-hits a backend while the directory is unchanged.
func (f *FileSystem) Readdir(p string, cb func([]abi.Dirent, abi.Errno)) {
	f.walk(p, walkOpts{follow: true}, func(e walkEnt) {
		if e.err != abi.OK {
			cb(nil, e.err)
			return
		}
		if !e.st.IsDir() {
			cb(nil, abi.ENOTDIR)
			return
		}
		dir := e.path
		if !f.feat.NoCaches {
			if ents, ok := f.dc.getDir(dir); ok {
				// Hand out a copy: callers may hold the slice across
				// later invalidations.
				cb(append([]abi.Dirent(nil), ents...), abi.OK)
				return
			}
		}
		e.backend.Readdir(e.rel, func(ents []abi.Dirent, err abi.Errno) {
			if err != abi.OK {
				// A synthetic mount ancestor lists nothing but nested
				// mounts; real backend failures (EIO...) still surface.
				if (err != abi.ENOENT && err != abi.ENOTDIR) || !f.mountAncestor(dir) {
					cb(nil, err)
					return
				}
				ents = nil
			}
			dirSlash := dir
			if dirSlash != "/" {
				dirSlash += "/"
			}
			seen := make(map[string]bool, len(ents))
			for _, d := range ents {
				seen[d.Name] = true
			}
			for _, m := range f.mounts {
				if m.prefix == "/" || !strings.HasPrefix(m.prefix, dirSlash) {
					continue
				}
				name := m.prefix[len(dirSlash):]
				if i := strings.IndexByte(name, '/'); i >= 0 {
					name = name[:i]
				}
				if name != "" && !seen[name] {
					ents = append(ents, abi.Dirent{Name: name, Type: abi.DT_DIR})
					seen[name] = true
				}
			}
			sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
			if !f.feat.NoCaches {
				f.dc.putDir(dir, append([]abi.Dirent(nil), ents...))
			}
			cb(ents, abi.OK)
		})
	})
}

// Mkdir creates a directory.
func (f *FileSystem) Mkdir(p string, mode uint32, cb func(abi.Errno)) {
	f.walk(p, walkOpts{}, func(e walkEnt) {
		switch {
		case e.err == abi.OK && e.synthetic:
			// The directory exists only as a synthesized mount-point
			// ancestor: create it for real in the owning backend, so
			// entries can be created beneath it (MkdirAll depends on
			// this).
			f.invalidateEntry(e.path, e.parent)
			e.backend.Mkdir(e.rel, mode, func(err abi.Errno) {
				f.invalidateEntry(e.path, e.parent)
				cb(err)
			})
		case e.err == abi.OK:
			cb(abi.EEXIST)
		case e.err == abi.ENOENT && e.canCreate:
			f.invalidateEntry(e.path, e.parent)
			e.backend.Mkdir(e.rel, mode, func(err abi.Errno) {
				f.invalidateEntry(e.path, e.parent)
				cb(err)
			})
		default:
			cb(e.err)
		}
	})
}

// MkdirAll creates a directory and any missing parents.
func (f *FileSystem) MkdirAll(p string, mode uint32, cb func(abi.Errno)) {
	mkdirChain(Clean(p), mode, f.Mkdir, cb)
}

// mkdirChain calls mkdir on every prefix p[:k] of the clean absolute
// path p other than "/", shortest first, then cb. EEXIST counts as
// success; any other error ends the chain.
func mkdirChain(p string, mode uint32, mkdir func(string, uint32, func(abi.Errno)), cb func(abi.Errno)) {
	end := 0 // p[:end] is the prefix made last
	var next func(abi.Errno)
	next = func(err abi.Errno) {
		if err != abi.OK && err != abi.EEXIST {
			cb(err)
			return
		}
		if end == len(p) || p == "/" {
			cb(abi.OK)
			return
		}
		if k := strings.IndexByte(p[end+1:], '/'); k >= 0 {
			end += 1 + k
		} else {
			end = len(p)
		}
		mkdir(p[:end], mode, next)
	}
	next(abi.OK)
}

// Rmdir removes an empty directory.
//
// Like every mutating operation below, the caches are invalidated both
// before dispatch and again in the completion callback: a backend may
// complete asynchronously (overlay copy-up over the network), and a
// concurrent lookup mid-flight would otherwise re-cache pre-mutation
// state that nothing invalidates afterwards.
func (f *FileSystem) Rmdir(p string, cb func(abi.Errno)) {
	f.walk(p, walkOpts{}, func(e walkEnt) {
		if e.err != abi.OK {
			cb(e.err)
			return
		}
		f.invalidateTree(e.path, e.parent)
		e.backend.Rmdir(e.rel, func(err abi.Errno) {
			f.invalidateTree(e.path, e.parent)
			cb(err)
		})
	})
}

// Unlink removes a file or symlink.
func (f *FileSystem) Unlink(p string, cb func(abi.Errno)) {
	if hadTrailingSlash(p) {
		// unlink("p/") can never name a file.
		f.walk(p, walkOpts{}, func(e walkEnt) {
			if e.err != abi.OK {
				cb(e.err)
				return
			}
			cb(abi.EISDIR)
		})
		return
	}
	f.walk(p, walkOpts{}, func(e walkEnt) {
		if e.err != abi.OK {
			cb(e.err)
			return
		}
		f.invalidateEntry(e.path, e.parent)
		e.backend.Unlink(e.rel, func(err abi.Errno) {
			f.invalidateEntry(e.path, e.parent)
			cb(err)
		})
	})
}

// Rename moves a file within a single backend; cross-backend moves return
// EXDEV, as on Unix.
func (f *FileSystem) Rename(oldp, newp string, cb func(abi.Errno)) {
	f.walk(oldp, walkOpts{}, func(oe walkEnt) {
		if oe.err != abi.OK {
			cb(oe.err)
			return
		}
		f.walk(newp, walkOpts{}, func(ne walkEnt) {
			if ne.err != abi.OK && !ne.canCreate {
				cb(ne.err)
				return
			}
			if oe.backend != ne.backend {
				cb(abi.EXDEV)
				return
			}
			// Only a directory rename moves a subtree; file renames
			// need (and pay for) per-entry invalidation only. A dir on
			// either end (e.g. file replacing an empty dir) still takes
			// the tree path: entries below it may be cached.
			invalidate := func() {
				if oe.st.IsDir() || (ne.err == abi.OK && ne.st.IsDir()) {
					f.invalidateTree(oe.path, oe.parent)
					f.invalidateTree(ne.path, ne.parent)
				} else {
					f.invalidateEntry(oe.path, oe.parent)
					f.invalidateEntry(ne.path, ne.parent)
				}
			}
			invalidate()
			oe.backend.Rename(oe.rel, ne.rel, func(err abi.Errno) {
				invalidate()
				cb(err)
			})
		})
	})
}

// Readlink reads a symlink target.
func (f *FileSystem) Readlink(p string, cb func(string, abi.Errno)) {
	f.walk(p, walkOpts{}, func(e walkEnt) {
		if e.err != abi.OK {
			cb("", e.err)
			return
		}
		if !e.st.IsSymlink() {
			cb("", abi.EINVAL)
			return
		}
		e.backend.Readlink(e.rel, cb)
	})
}

// Symlink creates a symlink at linkp pointing to target.
func (f *FileSystem) Symlink(target, linkp string, cb func(abi.Errno)) {
	f.walk(linkp, walkOpts{}, func(e walkEnt) {
		if e.err == abi.OK {
			// Exists in the merged view (possibly only in an overlay's
			// lower layer, which the backend alone would not notice).
			cb(abi.EEXIST)
			return
		}
		if !e.canCreate {
			cb(e.err)
			return
		}
		f.invalidateEntry(e.path, e.parent)
		e.backend.Symlink(target, e.rel, func(err abi.Errno) {
			f.invalidateEntry(e.path, e.parent)
			cb(err)
		})
	})
}

// Utimes sets access/modification times.
func (f *FileSystem) Utimes(p string, atime, mtime int64, cb func(abi.Errno)) {
	f.walk(p, walkOpts{follow: true}, func(e walkEnt) {
		if e.err != abi.OK {
			cb(e.err)
			return
		}
		f.invalidatePath(e.path)
		e.backend.Utimes(e.rel, atime, mtime, func(err abi.Errno) {
			f.invalidatePath(e.path)
			cb(err)
		})
	})
}

// Access checks existence (permission bits are not enforced: Browsix
// relies on the browser sandbox instead of users, §3.1).
func (f *FileSystem) Access(p string, amode int, cb func(abi.Errno)) {
	f.Stat(p, func(st abi.Stat, err abi.Errno) { cb(err) })
}

// ReadFile slurps a whole file (convenience for the kernel and web app).
// The bytes are a fresh copy; the caller may keep or modify them.
func (f *FileSystem) ReadFile(p string, cb func([]byte, abi.Errno)) {
	f.readFile(p, false, cb)
}

// ReadFileShared is ReadFile for a reader that never mutates the bytes,
// such as the kernel reading an executable to spawn it. It opens p exactly
// as ReadFile does (walk, Stat); then a backend that can alias its file
// hands out the contents by reference, copying before the file's next
// in-place write so the returned bytes never change.
// Other backends copy. The caller promises never to mutate the result.
func (f *FileSystem) ReadFileShared(p string, cb func([]byte, abi.Errno)) {
	f.readFile(p, true, cb)
}

func (f *FileSystem) readFile(p string, shared bool, cb func([]byte, abi.Errno)) {
	f.Open(p, abi.O_RDONLY, 0, func(h FileHandle, err abi.Errno) {
		if err != abi.OK {
			cb(nil, err)
			return
		}
		h.Stat(func(st abi.Stat, err abi.Errno) {
			done := func(data []byte, err abi.Errno) {
				h.Close(func(abi.Errno) {})
				cb(data, err)
			}
			if err != abi.OK {
				done(nil, err)
				return
			}
			if shared && readShared(h, done) {
				return
			}
			h.Pread(0, int(st.Size), done)
		})
	})
}

// WriteFile creates/truncates a file with the given contents. The bytes
// are copied; the caller may reuse data.
func (f *FileSystem) WriteFile(p string, data []byte, mode uint32, cb func(abi.Errno)) {
	f.writeFile(p, data, mode, false, cb)
}

// WriteFileShared is WriteFile for bytes shared by many files, such as one
// executable staged into every Instance. It opens p exactly as WriteFile
// does (walk, O_TRUNC, cache invalidation); then a backend that can alias
// data adopts it as the file's contents, copying only before the file's
// first in-place write. Other backends copy it.
// The caller promises never to mutate data.
func (f *FileSystem) WriteFileShared(p string, data []byte, mode uint32, cb func(abi.Errno)) {
	f.writeFile(p, data, mode, true, cb)
}

func (f *FileSystem) writeFile(p string, data []byte, mode uint32, shared bool, cb func(abi.Errno)) {
	f.Open(p, abi.O_WRONLY|abi.O_CREAT|abi.O_TRUNC, mode, func(h FileHandle, err abi.Errno) {
		if err != abi.OK {
			cb(err)
			return
		}
		if shared && adoptShared(h, data) {
			h.Close(func(abi.Errno) {})
			cb(abi.OK)
			return
		}
		h.Pwrite(0, data, func(n int, err abi.Errno) {
			h.Close(func(abi.Errno) {})
			cb(err)
		})
	})
}

// sharedAdopter is a backend handle that can take caller-owned bytes as
// the whole contents of its (just truncated) file without copying them.
type sharedAdopter interface {
	adoptShared(data []byte)
}

// adoptShared hands data to the backend handle under h, a fresh
// write-capable handle from openAt, and drops the path's cached state as
// a write through h would. It reports false when the backend must copy.
func adoptShared(h FileHandle, data []byte) bool {
	w, ok := h.(*invalHandle)
	if !ok {
		return false
	}
	a, ok := w.FileHandle.(sharedAdopter)
	if !ok {
		return false
	}
	a.adoptShared(data)
	w.fs.invalidatePath(w.path)
	return true
}

// sharedReader is a backend handle that can hand out its file's whole
// contents by reference, copying them before its own next in-place write.
type sharedReader interface {
	readShared() ([]byte, abi.Errno)
}

// readShared reads h's whole file by reference. It reports false,
// calling nothing, when the backend under h must copy.
func readShared(h FileHandle, cb func([]byte, abi.Errno)) bool {
	w, ok := h.(*invalHandle)
	if !ok {
		return false
	}
	r, ok := w.FileHandle.(sharedReader)
	if !ok {
		return false
	}
	cb(r.readShared())
	return true
}

// ---------------------------------------------------------------------------
// invalHandle: a write-capable handle that keeps the caches honest.
// ---------------------------------------------------------------------------

// invalHandle wraps a backend handle so every mutation drops the cached
// dentry (attributes) and pages for the canonical path, even writes on
// descriptors that were opened read-only. Reads go straight to the
// backend, which every completed write has already reached.
type invalHandle struct {
	FileHandle
	fs   *FileSystem
	path string

	// free lists the mutation completions not in use; first is the
	// handle's own, so a handle never has more than one mutation in
	// flight allocates no record.
	free  *invalDone
	first invalDone
}

// invalDone is one mutation's completion through an invalHandle: when
// the backend returns it drops the path's cached state again, goes back
// to the handle's free list, and runs the caller's continuation. Its
// adapters are bound once, the first time each is needed, so a stream
// of writes through one handle allocates nothing here.
type invalDone struct {
	h     *invalHandle
	next  *invalDone
	cb    func(int, abi.Errno)
	ecb   func(abi.Errno)
	count func(int, abi.Errno)
	errno func(abi.Errno)
}

func (h *invalHandle) take() *invalDone {
	d := h.free
	switch {
	case d != nil:
		h.free = d.next
	case h.first.h == nil:
		d = &h.first
		d.h = h
	default:
		d = &invalDone{h: h}
	}
	return d
}

// finish invalidates and recycles d, whose continuation the caller has
// already taken out.
func (d *invalDone) finish() {
	h := d.h
	d.cb, d.ecb = nil, nil
	d.next, h.free = h.free, d
	h.fs.invalidatePath(h.path)
}

// countDone is a completion for a write that reports to cb.
func (h *invalHandle) countDone(cb func(int, abi.Errno)) func(int, abi.Errno) {
	d := h.take()
	d.cb = cb
	if d.count == nil {
		d.count = func(n int, err abi.Errno) {
			cb := d.cb
			d.finish()
			cb(n, err)
		}
	}
	return d.count
}

func (h *invalHandle) Pwrite(off int64, data []byte, cb func(int, abi.Errno)) {
	h.fs.invalidatePath(h.path)
	h.FileHandle.Pwrite(off, data, h.countDone(cb))
}

func (h *invalHandle) Pwritev(off int64, bufs [][]byte, cb func(int, abi.Errno)) {
	h.fs.invalidatePath(h.path)
	h.FileHandle.Pwritev(off, bufs, h.countDone(cb))
}

func (h *invalHandle) Truncate(size int64, cb func(abi.Errno)) {
	h.fs.invalidatePath(h.path)
	d := h.take()
	d.ecb = cb
	if d.errno == nil {
		d.errno = func(err abi.Errno) {
			cb := d.ecb
			d.finish()
			cb(err)
		}
	}
	h.FileHandle.Truncate(size, d.errno)
}

// ---------------------------------------------------------------------------
// Vectored fallbacks for backends whose natural representation is scalar.
// ---------------------------------------------------------------------------

// genericPreadv implements Preadv as one coalesced Pread (the fallback
// for handles with no cheaper representation).
func genericPreadv(h FileHandle, off int64, lens []int, cb func([][]byte, abi.Errno)) {
	total := 0
	for _, n := range lens {
		total += n
	}
	h.Pread(off, total, func(data []byte, err abi.Errno) {
		if err != abi.OK || len(data) == 0 {
			cb(nil, err)
			return
		}
		cb([][]byte{data}, abi.OK)
	})
}
