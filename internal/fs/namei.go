package fs

import (
	"path"
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

// splitPath normalizes a path into components, dropping "." and empty
// components but *preserving* ".."  — unlike Clean, which collapses ".."
// lexically and therefore resolves it against the symlink's name instead
// of its target. The walker pops ".." against the resolved position.
func splitPath(p string) []string {
	var parts []string
	for _, c := range strings.Split(p, "/") {
		switch c {
		case "", ".":
		default:
			parts = append(parts, c)
		}
	}
	return parts
}

// joinComp appends one component to a resolved canonical path. ".." pops
// the last resolved component, clamping at the root as namei does — cur
// is symlink-free by construction, so the textual pop is POSIX-correct.
func joinComp(cur, name string) string {
	switch name {
	case "", ".":
		return cur
	case "..":
		return path.Dir(cur)
	}
	if cur == "/" {
		return "/" + name
	}
	return cur + "/" + name
}

// walk resolves p (raw, possibly trailing-slashed) and calls cb exactly
// once with the result. Backends may complete lookups asynchronously, so
// the walk is continuation-passing like everything else in this layer.
//
// A whole-walk cache hit is validated against the endpoint's dentry:
// every mutation drops the dentry it touches, and symlink-traversing
// walks are never cached, so a live endpoint dentry proves the cached
// resolution (and supplies fresh attributes).
func (f *FileSystem) walk(p string, o walkOpts, cb func(walkEnt)) {
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
	f.walk1(splitPath(p), o, 0, func(e walkEnt) {
		if cacheable && e.err == abi.OK && !e.viaLink {
			f.dc.putWalk(p, o, e)
		}
		cb(e)
	})
}

// walk1 walks the path components. depth counts symlink expansions
// across restarts; exceeding maxSymlinks yields ELOOP.
func (f *FileSystem) walk1(parts []string, o walkOpts, depth int, cb func(walkEnt)) {
	if depth > maxSymlinks {
		cb(walkEnt{err: abi.ELOOP})
		return
	}
	if len(parts) == 0 { // "/"
		f.lookupEnt("/", func(d *dentry) {
			b, rel := f.resolveMount("/")
			cb(walkEnt{err: d.err, path: "/", parent: "/", backend: b, rel: rel, st: d.st})
		})
		return
	}
	cur := "/"
	var step func(i int)
	step = func(i int) {
		name := parts[i]
		next := joinComp(cur, name)
		last := i == len(parts)-1
		f.lookupEnt(next, func(d *dentry) {
			if d.err != abi.OK {
				if !last || d.err != abi.ENOENT {
					// Only a cleanly missing final component is
					// creatable; EIO etc. must not look like ENOENT.
					cb(walkEnt{err: d.err})
					return
				}
				b, rel := f.resolveMount(next)
				cb(walkEnt{err: d.err, canCreate: true, path: next, parent: cur, backend: b, rel: rel})
				return
			}
			if d.st.IsSymlink() && (!last || o.follow) {
				f.readTarget(next, d, func(target string, err abi.Errno) {
					if err != abi.OK {
						cb(walkEnt{err: err})
						return
					}
					np := target
					if !strings.HasPrefix(target, "/") {
						np = cur + "/" + target
					}
					if rest := strings.Join(parts[i+1:], "/"); rest != "" {
						np += "/" + rest
					}
					f.walk1(splitPath(np), o, depth+1, func(e walkEnt) {
						e.viaLink = true
						cb(e)
					})
				})
				return
			}
			if !last {
				if !d.st.IsDir() {
					cb(walkEnt{err: abi.ENOTDIR})
					return
				}
				cur = next
				step(i + 1)
				return
			}
			if o.requireDir && !d.st.IsDir() {
				cb(walkEnt{err: abi.ENOTDIR})
				return
			}
			b, rel := f.resolveMount(next)
			cb(walkEnt{err: abi.OK, path: next, parent: cur, backend: b, rel: rel, st: d.st, synthetic: d.synthetic})
		})
	}
	step(0)
}

// lookupEnt produces the dentry for one canonical path, consulting the
// cache first. Missing backend entries that shadow a nested mount point
// become synthetic directories, so mounts are reachable (and listable)
// even when the parent backend has no such directory.
func (f *FileSystem) lookupEnt(p string, cb func(*dentry)) {
	if !f.feat.NoCaches {
		if d, ok := f.dc.get(p); ok {
			cb(d)
			return
		}
	}
	b, rel := f.resolveMount(p)
	b.Lstat(rel, func(st abi.Stat, err abi.Errno) {
		var d *dentry
		if (err == abi.ENOENT || err == abi.ENOTDIR) && f.mountAncestor(p) {
			// Missing in the backend but an ancestor of a mount point:
			// the merged namespace has a directory here. Real backend
			// failures (EIO...) are not masked.
			d = &dentry{st: abi.Stat{Mode: abi.S_IFDIR | 0o555, Nlink: 1}, err: abi.OK, synthetic: true}
		} else if err == abi.OK {
			d = &dentry{st: st, err: abi.OK}
		} else if err == abi.ENOENT {
			d = &dentry{err: abi.ENOENT} // negative entry
		} else {
			// Non-cacheable failure (EIO...): report without caching.
			cb(&dentry{err: err})
			return
		}
		if !f.feat.NoCaches {
			f.dc.put(p, d)
		}
		cb(d)
	})
}

// readTarget reads (and memoizes) a symlink's target.
func (f *FileSystem) readTarget(p string, d *dentry, cb func(string, abi.Errno)) {
	if d.hasTarget {
		cb(d.target, abi.OK)
		return
	}
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
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	for _, m := range f.mounts {
		if m.prefix != "/" && strings.HasPrefix(m.prefix, prefix) {
			return true
		}
	}
	return false
}
