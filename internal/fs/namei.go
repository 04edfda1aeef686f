package fs

import (
	"bytes"
	"strings"

	"repro/internal/abi"
)

// Per-component path resolution (namei). The old scheme resolved whole
// paths against a single backend and only followed trailing symlinks;
// this walker resolves one component at a time, so it handles symlinks in
// intermediate components, `..` that would escape the root, trailing
// slashes, and mount crossings mid-path — and every component lookup goes
// through the dentry cache.

const maxSymlinks = 8

// walkOpts selects walker behaviour per operation.
type walkOpts struct {
	// follow resolves a trailing symlink (stat/open/readdir/utimes);
	// lstat/unlink/rename/readlink leave it unresolved.
	follow bool
	// requireDir comes from a trailing slash on the raw path: the final
	// component must resolve to a directory (POSIX: "p/" ≡ "p/.", which
	// also forces a trailing symlink to be followed).
	requireDir bool
}

// walkEnt is the walker's result.
type walkEnt struct {
	// err is OK when the final component exists, ENOENT when only the
	// final component is missing (creation may proceed), or the error
	// that stopped the walk (ENOTDIR, ELOOP, intermediate ENOENT...).
	err abi.Errno
	// canCreate distinguishes "final component missing under an existing
	// directory" from a walk that failed earlier.
	canCreate bool

	path    string  // canonical VFS path of the final component
	parent  string  // canonical path of its directory
	backend Backend // mount owning path
	rel     string  // path within backend
	st      abi.Stat
	// viaLink records that the walk traversed a symlink. Such results
	// are not whole-walk cached: their validity depends on names other
	// than the endpoint's own dentry.
	viaLink bool
	// synthetic marks a directory that exists only as a synthesized
	// mount-point ancestor — no backend has it (Mkdir may create it for
	// real).
	synthetic bool
}

// hadTrailingSlash reports whether the raw (pre-Clean) path asks for a
// directory: it ends in "/" or in "/." (POSIX treats both as "p/.").
// "/" and "/." themselves do not count.
func hadTrailingSlash(p string) bool {
	return (len(p) > 1 && strings.HasSuffix(p, "/")) ||
		(len(p) > 2 && strings.HasSuffix(p, "/."))
}

// walk resolves p (raw, possibly trailing-slashed) and calls cb exactly
// once with the result. Backends may complete lookups asynchronously, so
// the walk is continuation-passing like everything else in this layer.
// An empty p names nothing: POSIX gives it ENOENT.
//
// The walk scans p in place (walker), so the dentry keys, the whole-walk
// cache's radix keys and the result's path, parent and rel may all be
// substrings of p. p must therefore be an ordinary immutable Go string,
// never a view of mutable bytes. Every path reaching the VFS is one: the
// kernel's codecs copy path arguments out of guest memory into new
// strings, and no package here builds strings with unsafe.
//
// A whole-walk cache hit is validated against the endpoint's dentry:
// every mutation drops the dentry it touches, and symlink-traversing
// walks are never cached, so a live endpoint dentry proves the cached
// resolution (and supplies fresh attributes).
func (f *FileSystem) walk(p string, o walkOpts, cb func(walkEnt)) {
	if p == "" {
		cb(walkEnt{err: abi.ENOENT})
		return
	}
	if hadTrailingSlash(p) {
		o.requireDir = true
		o.follow = true
	}
	// Paths containing ".." are never whole-walk cached: the result's
	// validity depends on intermediate components the endpoint-dentry
	// validation cannot see ("/a/../b" stops resolving once /a is
	// removed, even though /b lives on). Contains over-matches names
	// like "a..b" — that only skips an optimization.
	cacheable := !f.feat.NoCaches && !strings.Contains(p, "..")
	if cacheable {
		if e, ok := f.dc.getWalk(p, o); ok {
			d, present := f.dc.entries[e.path]
			// The endpoint may have been replaced since the walk was
			// cached: a symlink there invalidates a following walk, a
			// non-directory invalidates a trailing-slash walk.
			if validWalkHit(d, present, o) {
				f.dc.walkHits.Add(1)
				e.st = d.st
				cb(e)
				return
			}
		}
	}
	w := f.walkers.Take()
	if w == nil {
		w = &walker{f: f}
		w.resume = w.lstatDone
	}
	w.key, w.o, w.cacheable, w.cb = p, o, cacheable, cb
	w.start(p)
	w.run()
}

// walker is one walk's state, recycled through the FileSystem's free
// list once the walk has finished. It resolves one component at a time,
// scanning the path string by index: empty and "." components are
// skipped, ".." pops the resolved prefix (which is symlink-free by
// construction, so the textual pop is POSIX-correct, clamping at the
// root as namei does), and a symlink restarts the walk from the root on
// its target followed by the rest of the path. depth counts those
// restarts; exceeding maxSymlinks yields ELOOP.
//
// The resolved prefix cur and the path of the component being looked
// up, next, are base[:curLen] and base[:nextLen]. base is p itself for
// as long as every component has directly followed cur in p, which
// holds throughout a canonical absolute path, so its dentry keys are
// substrings of p. A "..", ".", "//" or relative start moves the walk
// to buf, a byte buffer kept for the rest of the walk: warm lookups
// index the dentry map with its bytes, and a string is made only for a
// dentry a backend miss inserts and for the final result.
type walker struct {
	f *FileSystem
	p string // the path being walked; a symlink restart replaces it

	// [ci, cj) is the component after the one being looked up, so
	// [ci, cj) is empty (ci == len(p)) when that one is the last. j
	// ends the component being looked up.
	ci, cj, j int

	canon           bool // base is p; otherwise base is buf
	curLen, nextLen int
	buf             []byte

	o       walkOpts
	depth   int
	viaLink bool
	// root marks a walk of a path with no components ("/", "//.").
	root bool
	last bool // next is the path's last component

	key       string // the path walk was called with: the whole-walk cache key
	cacheable bool
	cb        func(walkEnt)

	// A backend miss: missKey is next as a string (the new dentry's
	// key), resume the walker's one continuation (bound once, when the
	// record is made, and kept across reuse), and inline/got catch a
	// backend that completes before its Lstat returns, so the walk goes
	// on in its loop instead of recursing.
	missKey string
	resume  func(abi.Stat, abi.Errno)
	inline  bool
	got     *dentry
}

// comp returns the bounds [i, j) of the first component of p at or after
// from, skipping empty and "." components; i == len(p) when none is left.
func comp(p string, from int) (i, j int) {
	i = from
	for {
		for i < len(p) && p[i] == '/' {
			i++
		}
		j = i
		for j < len(p) && p[j] != '/' {
			j++
		}
		if j-i != 1 || p[i] != '.' {
			return i, j
		}
		i = j
	}
}

// start (re)starts the walk at the root, on path p (non-empty).
func (w *walker) start(p string) {
	w.p, w.curLen = p, 1
	w.canon = p[0] == '/'
	if !w.canon {
		w.toBuf()
	}
	w.ci, w.cj = comp(p, 0)
	w.root = !w.scan()
	if w.root {
		w.nextLen, w.last = 1, true
	}
}

// toBuf moves cur into buf, sized so the rest of a walk of p never
// regrows it (cur plus any suffix of p fits).
func (w *walker) toBuf() {
	if need := w.curLen + len(w.p) + 1; cap(w.buf) < need {
		w.buf = make([]byte, 0, need)
	}
	if w.canon {
		w.buf = append(w.buf[:0], w.p[:w.curLen]...)
	} else {
		w.buf = append(w.buf[:0], '/')
	}
	w.canon = false
}

// scan makes the next component of p the one to look up, pointing
// nextLen at its canonical path. It reports false when no component is
// left.
func (w *walker) scan() bool {
	i, j := w.ci, w.cj
	if i == len(w.p) {
		return false
	}
	w.j = j
	w.ci, w.cj = comp(w.p, j)
	w.last = w.ci == len(w.p)
	if j-i == 2 && w.p[i] == '.' && w.p[i+1] == '.' {
		k := 0
		if w.canon {
			k = strings.LastIndexByte(w.p[:w.curLen], '/')
		} else {
			k = bytes.LastIndexByte(w.buf[:w.curLen], '/')
		}
		w.nextLen = max(k, 1)
		return true
	}
	sep := w.curLen // where the separator before the component sits
	if sep == 1 {
		sep = 0 // cur is "/", which is its own separator
	}
	if w.canon && i == sep+1 {
		w.nextLen = j
		return true
	}
	if w.canon {
		w.toBuf()
	}
	w.buf = w.buf[:w.curLen]
	if w.curLen > 1 {
		w.buf = append(w.buf, '/')
	}
	w.buf = append(w.buf, w.p[i:j]...)
	w.nextLen = len(w.buf)
	return true
}

// str returns base[:n] as a string, a substring of p while the walk is
// canonical.
func (w *walker) str(n int) string {
	if w.canon {
		return w.p[:n]
	}
	return string(w.buf[:n])
}

// ends returns next and cur as strings, made with at most one
// allocation: the shorter is a prefix of the longer (cur is longer only
// when the last component is "..").
func (w *walker) ends() (path, parent string) {
	if w.nextLen >= w.curLen {
		path = w.str(w.nextLen)
		return path, path[:w.curLen]
	}
	parent = w.str(w.curLen)
	return parent[:w.nextLen], parent
}

// run takes components until the walk ends or waits on a backend.
func (w *walker) run() {
	for {
		d := w.lookup()
		if d == nil || !w.advance(d) {
			return
		}
	}
}

// lookup returns next's dentry, from the cache when warm. On a miss it
// asks next's backend; if the backend answers later, lookup returns nil
// and the answer resumes the walk.
func (w *walker) lookup() *dentry {
	f := w.f
	if !f.feat.NoCaches {
		var d *dentry
		var ok bool
		if w.canon {
			d, ok = f.dc.get(w.p[:w.nextLen])
		} else {
			d, ok = f.dc.getBytes(w.buf[:w.nextLen])
		}
		if ok {
			return d
		}
	}
	w.missKey = w.str(w.nextLen)
	b, rel := f.resolveMount(w.missKey)
	w.inline = true
	b.Lstat(rel, w.resume)
	w.inline = false
	d := w.got
	w.got = nil
	return d
}

// lstatDone is the backend's answer for missKey.
func (w *walker) lstatDone(st abi.Stat, err abi.Errno) {
	d := w.f.missDentry(w.missKey, st, err)
	if w.inline {
		w.got = d
		return
	}
	if w.advance(d) {
		w.run()
	}
}

// advance applies next's dentry d. It reports whether the walk goes on
// to another component; otherwise the walk has finished or waits on a
// symlink target.
func (w *walker) advance(d *dentry) bool {
	if w.root {
		b, rel := w.f.resolveMount("/")
		w.finish(walkEnt{err: d.err, path: "/", parent: "/", backend: b, rel: rel, st: d.st})
		return false
	}
	if d.err != abi.OK {
		if !w.last || d.err != abi.ENOENT {
			// Only a cleanly missing final component is creatable;
			// EIO etc. must not look like ENOENT.
			w.finish(walkEnt{err: d.err})
			return false
		}
		path, parent := w.ends()
		b, rel := w.f.resolveMount(path)
		w.finish(walkEnt{err: d.err, canCreate: true, path: path, parent: parent, backend: b, rel: rel})
		return false
	}
	if d.st.IsSymlink() && (!w.last || w.o.follow) {
		if d.hasTarget {
			return w.restart(d.target)
		}
		w.f.readTarget(w.str(w.nextLen), d, func(target string, err abi.Errno) {
			if err != abi.OK {
				w.finish(walkEnt{err: err})
			} else if w.restart(target) {
				w.run()
			}
		})
		return false
	}
	if !w.last {
		if !d.st.IsDir() {
			w.finish(walkEnt{err: abi.ENOTDIR})
			return false
		}
		w.curLen = w.nextLen
		return w.scan()
	}
	if w.o.requireDir && !d.st.IsDir() {
		w.finish(walkEnt{err: abi.ENOTDIR})
		return false
	}
	path, parent := w.ends()
	b, rel := w.f.resolveMount(path)
	w.finish(walkEnt{err: abi.OK, path: path, parent: parent, backend: b, rel: rel, st: d.st, synthetic: d.synthetic})
	return false
}

// restart expands a symlink to target: the walk starts over from the
// root on the target followed by the unwalked rest of the path, raw. It
// reports false when the expansion exceeds maxSymlinks (the walk has
// finished with ELOOP).
func (w *walker) restart(target string) bool {
	rest := w.p[w.j:]
	np := target
	switch {
	case !strings.HasPrefix(target, "/") && w.curLen == 1:
		np = "/" + target + rest
	case !strings.HasPrefix(target, "/") && w.canon:
		np = w.p[:w.curLen] + "/" + target + rest
	case !strings.HasPrefix(target, "/"):
		np = string(w.buf[:w.curLen]) + "/" + target + rest
	case rest != "":
		np = target + rest
	}
	w.depth++
	w.viaLink = true
	if w.depth > maxSymlinks {
		w.finish(walkEnt{err: abi.ELOOP})
		return false
	}
	w.start(np)
	return true
}

// finish caches a cacheable result in the whole-walk tier, hands it to
// the walk's callback and then recycles the walker: finish is the
// walk's last use of w.
func (w *walker) finish(e walkEnt) {
	e.viaLink = w.viaLink
	if w.cacheable && e.err == abi.OK && !e.viaLink {
		w.f.dc.putWalk(w.key, w.o, e)
	}
	w.cb(e)
	*w = walker{f: w.f, buf: w.buf[:0], resume: w.resume}
	w.f.walkers.Put(w)
}

// missDentry makes the dentry for canonical path p from its backend's
// Lstat answer, caching it unless the failure is not cacheable. Missing
// backend entries that shadow a nested mount point become synthetic
// directories, so mounts are reachable (and listable) even when the
// parent backend has no such directory.
func (f *FileSystem) missDentry(p string, st abi.Stat, err abi.Errno) *dentry {
	var d *dentry
	switch {
	case (err == abi.ENOENT || err == abi.ENOTDIR) && f.mountAncestor(p):
		// Missing in the backend but an ancestor of a mount point: the
		// merged namespace has a directory here. Real backend failures
		// (EIO...) are not masked.
		d = &dentry{st: abi.Stat{Mode: abi.S_IFDIR | 0o555, Nlink: 1}, err: abi.OK, synthetic: true}
	case err == abi.OK:
		d = &dentry{st: st, err: abi.OK}
	case err == abi.ENOENT:
		d = &dentry{err: abi.ENOENT} // negative entry
	default:
		// Non-cacheable failure (EIO...): report without caching.
		return &dentry{err: err}
	}
	if !f.feat.NoCaches {
		f.dc.put(p, d)
	}
	return d
}

// readTarget reads a symlink's target from its backend and memoizes it
// on the dentry.
func (f *FileSystem) readTarget(p string, d *dentry, cb func(string, abi.Errno)) {
	b, rel := f.resolveMount(p)
	b.Readlink(rel, func(target string, err abi.Errno) {
		if err == abi.OK {
			d.target, d.hasTarget = target, true
		}
		cb(target, err)
	})
}

// mountAncestor reports whether p is a strict ancestor of some mount
// point — such paths exist as directories in the merged namespace even
// when no backend has them.
func (f *FileSystem) mountAncestor(p string) bool {
	for _, m := range f.mounts {
		if m.prefix != "/" && len(m.prefix) > len(p) && strings.HasPrefix(m.prefix, p) &&
			(p == "/" || m.prefix[len(p)] == '/') {
			return true
		}
	}
	return false
}
