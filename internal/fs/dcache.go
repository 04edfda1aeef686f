package fs

import (
	"strings"
	"sync/atomic"

	"repro/internal/abi"
)

// The dentry cache is the naming layer's translation tier: it decouples
// path resolution from backend storage the way the Virtual Block
// Interface decouples virtual from physical blocks. Two tiers:
//
//   - per-component dentries: canonical path -> lstat result, including
//     negative entries (ENOENT) and memoized symlink targets, so a warm
//     walk never calls a backend;
//   - whole-walk entries: a radix-prefix tree keyed one path component
//     per level, each node holding the final walk result per option
//     flavour, so a warm stat/open of a hot path is one descent — and a
//     10^5-name TeX tree shares every directory prefix once instead of
//     duplicating it in 10^5 flat map keys.
//
// Every mutating operation invalidates the affected dentries and clears
// the whole-walk tier (it is cheap to rebuild from warm dentries). The
// cache holds no bytes — file contents live in the page cache.

// dentry is one cached name-resolution result for a canonical path.
type dentry struct {
	st        abi.Stat
	err       abi.Errno // OK, or the cacheable negative result (ENOENT)
	target    string    // symlink target, memoized on first Readlink
	hasTarget bool
	synthetic bool // directory synthesized for a nested mount point
}

// maxDentries bounds the per-component tier. Overflow clears the whole
// tier (crude, deterministic, and rare — a TeX Live walk touches a few
// thousand names).
const maxDentries = 16384

// maxDirListings bounds the directory-listing tier. Listings are heavier
// than dentries (whole entry slices), so the budget is smaller.
const maxDirListings = 2048

// maxWalkNodes bounds the whole-walk radix tree in *nodes*. Prefix
// sharing means a tree of N names costs about N nodes regardless of
// depth, so a 10^5-name TeX Live tree fits with headroom; overflow
// clears the tier (crude, deterministic, and now rare).
const maxWalkNodes = 1 << 17

// walkNode is one path component in the whole-walk radix tree. A node
// caches up to four walk results — one per (follow, requireDir) flavour —
// because the same name resolves differently per option set. Only
// err==OK, non-symlink-traversing results are stored; every hit is
// re-validated against the endpoint dentry before being served.
type walkNode struct {
	children map[string]*walkNode
	ents     [4]walkEnt
	has      [4]bool
}

// walkOptIdx maps walk options onto a node's result slot.
func walkOptIdx(o walkOpts) int {
	i := 0
	if o.follow {
		i = 1
	}
	if o.requireDir {
		i |= 2
	}
	return i
}

type dcache struct {
	entries map[string]*dentry

	// Whole-walk radix tier: walkRoot is the node for "/"; walkNodes
	// counts live nodes against maxWalkNodes (walkNodeCount shadows it
	// for cross-thread stats snapshots).
	walkRoot      *walkNode
	walkNodes     int
	walkNodeCount atomic.Int64

	// dirents caches complete directory listings keyed by canonical
	// directory path (merged across backends and mount synthesis,
	// sorted). Invalidated through the same drop/dropTree hooks as the
	// dentries: every mutating VFS operation drops the affected child
	// and its parent, which is exactly the listing that changed.
	dirents map[string][]abi.Dirent

	// Counters for the cache-hit-rate experiments (EXPERIMENTS.md).
	// Atomics: the host may snapshot CacheStats while the Instance runs
	// on another thread (the fleet's live stats path).
	hits, misses, negHits atomic.Int64
	walkHits              atomic.Int64
	dirHits, dirMisses    atomic.Int64
	// entryCount shadows len(entries) so CacheStats never reads the map
	// itself off the owning thread.
	entryCount atomic.Int64
}

func newDcache() *dcache {
	return &dcache{
		entries: map[string]*dentry{},
		dirents: map[string][]abi.Dirent{},
	}
}

// walkNodeFor descends the radix tree along raw path p — components
// scanned in place, empty and "." components skipped, so distinct
// spellings of one path ("/a//b", "/a/./b", "/a/b") share a node.
// Returns nil on a miss. ".."-containing paths never reach here (they
// are uncacheable; namei.go).
func (c *dcache) walkNodeFor(p string) *walkNode {
	n := c.walkRoot
	if n == nil {
		return nil
	}
	i := 0
	for i < len(p) {
		for i < len(p) && p[i] == '/' {
			i++
		}
		j := i
		for j < len(p) && p[j] != '/' {
			j++
		}
		if j > i && p[i:j] != "." {
			n = n.children[p[i:j]]
			if n == nil {
				return nil
			}
		}
		i = j
	}
	return n
}

// getWalk returns the cached whole-walk result for (p, o), unvalidated —
// walk() checks the endpoint dentry before serving it.
func (c *dcache) getWalk(p string, o walkOpts) (walkEnt, bool) {
	n := c.walkNodeFor(p)
	if n == nil {
		return walkEnt{}, false
	}
	idx := walkOptIdx(o)
	if !n.has[idx] {
		return walkEnt{}, false
	}
	return n.ents[idx], true
}

// putWalk caches a whole-walk result, creating radix nodes along the
// path. The node budget is checked up front: on overflow the whole tier
// clears (deterministically), then the insert proceeds.
func (c *dcache) putWalk(p string, o walkOpts, e walkEnt) {
	if c.walkNodes >= maxWalkNodes {
		c.walkRoot, c.walkNodes = nil, 0
	}
	if c.walkRoot == nil {
		c.walkRoot = &walkNode{}
		c.walkNodes = 1
	}
	n := c.walkRoot
	i := 0
	for i < len(p) {
		for i < len(p) && p[i] == '/' {
			i++
		}
		j := i
		for j < len(p) && p[j] != '/' {
			j++
		}
		if j > i && p[i:j] != "." {
			child := n.children[p[i:j]]
			if child == nil {
				if n.children == nil {
					n.children = map[string]*walkNode{}
				}
				child = &walkNode{}
				n.children[p[i:j]] = child
				c.walkNodes++
			}
			n = child
		}
		i = j
	}
	idx := walkOptIdx(o)
	n.ents[idx] = e
	n.has[idx] = true
	c.walkNodeCount.Store(int64(c.walkNodes))
}

// getDir returns a cached listing. The returned slice is shared: callers
// get a fresh copy from putDir's accessor path in fs.go.
func (c *dcache) getDir(p string) ([]abi.Dirent, bool) {
	ents, ok := c.dirents[p]
	if ok {
		c.dirHits.Add(1)
	} else {
		c.dirMisses.Add(1)
	}
	return ents, ok
}

func (c *dcache) putDir(p string, ents []abi.Dirent) {
	if len(c.dirents) >= maxDirListings {
		clear(c.dirents)
	}
	c.dirents[p] = ents
}

func (c *dcache) get(p string) (*dentry, bool) {
	d, ok := c.entries[p]
	c.count(d, ok)
	return d, ok
}

// getBytes is get for a path held in a byte buffer; the map lookup does
// not copy the bytes into a string.
func (c *dcache) getBytes(p []byte) (*dentry, bool) {
	d, ok := c.entries[string(p)]
	c.count(d, ok)
	return d, ok
}

// count tallies one per-component lookup in the hit counters.
func (c *dcache) count(d *dentry, ok bool) {
	if ok {
		if d.err == abi.OK {
			c.hits.Add(1)
		} else {
			c.negHits.Add(1)
		}
	} else {
		c.misses.Add(1)
	}
}

func (c *dcache) put(p string, d *dentry) {
	if len(c.entries) >= maxDentries {
		clear(c.entries)
		c.entryCount.Store(0)
	}
	if _, ok := c.entries[p]; !ok {
		c.entryCount.Add(1)
	}
	c.entries[p] = d
}

// validWalkHit reports whether a cached whole-walk result may be served:
// its endpoint dentry must be live and compatible with the walk options.
func validWalkHit(d *dentry, present bool, o walkOpts) bool {
	return present && d.err == abi.OK &&
		!(o.follow && d.st.IsSymlink()) &&
		!(o.requireDir && !d.st.IsDir())
}

// drop forgets one path. Whole-walk entries are not cleared: a walk hit
// is validated against its endpoint dentry, so dropping the dentry
// suffices to stale any walk that ends here — and symlink-traversing
// walks (whose validity depends on other names) are never cached. The
// path's directory listing is dropped too: mutating operations drop both
// the changed child and its parent, which covers the listing that gained
// or lost an entry.
func (c *dcache) drop(p string) {
	if _, ok := c.entries[p]; ok {
		c.entryCount.Add(-1)
	}
	delete(c.entries, p)
	delete(c.dirents, p)
}

// dropTree forgets a path and everything under it (rename/rmdir of a
// directory moves or deletes the whole subtree).
func (c *dcache) dropTree(p string) {
	if _, ok := c.entries[p]; ok {
		c.entryCount.Add(-1)
	}
	delete(c.entries, p)
	delete(c.dirents, p)
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	for k := range c.entries {
		if strings.HasPrefix(k, prefix) {
			delete(c.entries, k)
			c.entryCount.Add(-1)
		}
	}
	for k := range c.dirents {
		if strings.HasPrefix(k, prefix) {
			delete(c.dirents, k)
		}
	}
}

func (c *dcache) flush() {
	clear(c.entries)
	c.entryCount.Store(0)
	c.walkRoot, c.walkNodes = nil, 0
	c.walkNodeCount.Store(0)
	clear(c.dirents)
}
