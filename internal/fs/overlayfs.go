package fs

import (
	"path"
	"sort"
	"strings"

	"repro/internal/abi"
)

// OverlayFS is BrowserFS's overlay backend with the two Browsix extensions
// from §3.6:
//
//  1. Lazy underlay — the original overlay eagerly read every file from
//     the read-only lower layer at initialization; Browsix made reads lazy
//     (copy-up happens only when a file is first written). The Eager option
//     restores the old behaviour for the ablation benchmark.
//  2. Multi-process locking — operations from different processes must not
//     interleave, so every operation runs under an internal queue lock for
//     the full (possibly asynchronous) span of the operation.
//
// Deletions of lower-layer files are recorded in a deletion log, as in
// BrowserFS.
type OverlayFS struct {
	upper   Backend // writable
	lower   Backend // read-only
	deleted map[string]bool

	lockDepth int
	waiters   []func()

	// LockWaits counts operations that had to queue behind the lock
	// (observability for the locking tests).
	LockWaits int
}

// NewOverlayFS builds an overlay of a writable upper backend over a
// read-only lower backend.
func NewOverlayFS(upper, lower Backend) *OverlayFS {
	return &OverlayFS{upper: upper, lower: lower, deleted: map[string]bool{}}
}

// Name implements Backend.
func (o *OverlayFS) Name() string { return "overlayfs(" + o.upper.Name() + "+" + o.lower.Name() + ")" }

// ReadOnly implements Backend.
func (o *OverlayFS) ReadOnly() bool { return false }

// PageCacheable opts the overlay into the VFS page cache: reads often
// come from a slow lower layer (httpfs), and every write goes through the
// VFS invalidation hooks.
func (o *OverlayFS) PageCacheable() bool { return true }

// PageDedupable opts the overlay into content-addressed page sharing
// even though it is writable: lower-layer pages are immutable, and every
// upper-layer mutation (including copy-up) routes through the VFS
// invalidation hooks, which drop the shared reference before the new
// bytes become visible.
func (o *OverlayFS) PageDedupable() bool { return true }

// lock serializes operations: fn runs when the lock is free and must call
// release exactly once when its (possibly async) work completes.
func (o *OverlayFS) lock(fn func(release func())) {
	run := func() {
		o.lockDepth++
		fn(func() {
			o.lockDepth--
			if len(o.waiters) > 0 {
				next := o.waiters[0]
				o.waiters = o.waiters[1:]
				next()
			}
		})
	}
	if o.lockDepth > 0 {
		o.LockWaits++
		o.waiters = append(o.waiters, run)
		return
	}
	run()
}

// Stat implements Backend.
func (o *OverlayFS) Stat(p string, cb func(abi.Stat, abi.Errno)) { o.Lstat(p, cb) }

// Lstat implements Backend.
func (o *OverlayFS) Lstat(p string, cb func(abi.Stat, abi.Errno)) {
	p = Clean(p)
	if o.deleted[p] {
		cb(abi.Stat{}, abi.ENOENT)
		return
	}
	o.upper.Lstat(p, func(st abi.Stat, err abi.Errno) {
		if err == abi.OK {
			cb(st, abi.OK)
			return
		}
		o.lower.Lstat(p, cb)
	})
}

// ensureUpperDirs creates, in the upper layer, every ancestor directory of
// p that exists in the merged view (needed before a copy-up).
func (o *OverlayFS) ensureUpperDirs(p string, cb func(abi.Errno)) {
	mkdirChain(path.Dir(Clean(p)), 0o755, o.upper.Mkdir, cb)
}

// copyUp copies a lower-layer file into the upper layer (lazily: only
// called when a write requires it). The transfer is vectored end to end:
// the lower handle gathers page-sized segments in one Preadv, and the
// upper handle lands them with one Pwritev — no coalescing copy between
// the layers.
func (o *OverlayFS) copyUp(p string, cb func(abi.Errno)) {
	o.lower.Open(p, abi.O_RDONLY, 0, func(lh FileHandle, err abi.Errno) {
		if err != abi.OK {
			cb(err)
			return
		}
		lh.Stat(func(st abi.Stat, err abi.Errno) {
			if err != abi.OK {
				lh.Close(func(abi.Errno) {})
				cb(err)
				return
			}
			lens := make([]int, 0, st.Size/PageSize+1)
			for left := st.Size; left > 0; left -= PageSize {
				n := left
				if n > PageSize {
					n = PageSize
				}
				lens = append(lens, int(n))
			}
			lh.Preadv(0, lens, func(segs [][]byte, err abi.Errno) {
				lh.Close(func(abi.Errno) {})
				if err != abi.OK {
					cb(err)
					return
				}
				o.ensureUpperDirs(p, func(err abi.Errno) {
					if err != abi.OK {
						cb(err)
						return
					}
					o.upper.Open(p, abi.O_WRONLY|abi.O_CREAT|abi.O_TRUNC, uint32(st.Mode&0o777), func(uh FileHandle, err abi.Errno) {
						if err != abi.OK {
							cb(err)
							return
						}
						uh.Pwritev(0, segs, func(n int, err abi.Errno) {
							uh.Close(func(abi.Errno) {})
							cb(err)
						})
					})
				})
			})
		})
	})
}

// Open implements Backend. Reads are served from whichever layer has the
// file; writes force a copy-up first.
func (o *OverlayFS) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	p = Clean(p)
	o.lock(func(release func()) {
		done := func(h FileHandle, err abi.Errno) {
			cb(h, err)
			release()
		}
		wantsWrite := flags&abi.O_ACCMODE != abi.O_RDONLY || flags&(abi.O_CREAT|abi.O_TRUNC) != 0
		if o.deleted[p] {
			if flags&abi.O_CREAT == 0 {
				done(nil, abi.ENOENT)
				return
			}
			delete(o.deleted, p)
			o.ensureUpperDirs(p, func(err abi.Errno) {
				if err != abi.OK {
					done(nil, err)
					return
				}
				o.upper.Open(p, flags, mode, done)
			})
			return
		}
		o.upper.Stat(p, func(_ abi.Stat, uerr abi.Errno) {
			if uerr == abi.OK {
				o.upper.Open(p, flags, mode, done)
				return
			}
			o.lower.Stat(p, func(lst abi.Stat, lerr abi.Errno) {
				switch {
				case lerr == abi.OK && !wantsWrite:
					o.lower.Open(p, flags, mode, done)
				case lerr == abi.OK && wantsWrite:
					if lst.IsDir() {
						done(nil, abi.EISDIR)
						return
					}
					if flags&abi.O_TRUNC != 0 {
						// Content will be discarded: create fresh upper file.
						o.ensureUpperDirs(p, func(err abi.Errno) {
							if err != abi.OK {
								done(nil, err)
								return
							}
							o.upper.Open(p, flags|abi.O_CREAT, mode, done)
						})
						return
					}
					o.copyUp(p, func(err abi.Errno) {
						if err != abi.OK {
							done(nil, err)
							return
						}
						o.upper.Open(p, flags, mode, done)
					})
				case flags&abi.O_CREAT != 0:
					o.ensureUpperDirs(p, func(err abi.Errno) {
						if err != abi.OK {
							done(nil, err)
							return
						}
						o.upper.Open(p, flags, mode, done)
					})
				default:
					done(nil, abi.ENOENT)
				}
			})
		})
	})
}

// Readdir implements Backend: the union of both layers minus deletions.
func (o *OverlayFS) Readdir(p string, cb func([]abi.Dirent, abi.Errno)) {
	p = Clean(p)
	if o.deleted[p] {
		cb(nil, abi.ENOENT)
		return
	}
	o.upper.Readdir(p, func(uents []abi.Dirent, uerr abi.Errno) {
		o.lower.Readdir(p, func(lents []abi.Dirent, lerr abi.Errno) {
			if uerr != abi.OK && lerr != abi.OK {
				cb(nil, uerr)
				return
			}
			merged := map[string]abi.Dirent{}
			if lerr == abi.OK {
				for _, e := range lents {
					if !o.deleted[Clean(p+"/"+e.Name)] {
						merged[e.Name] = e
					}
				}
			}
			if uerr == abi.OK {
				for _, e := range uents {
					merged[e.Name] = e
				}
			}
			out := make([]abi.Dirent, 0, len(merged))
			for _, e := range merged {
				out = append(out, e)
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
			cb(out, abi.OK)
		})
	})
}

// Mkdir implements Backend.
func (o *OverlayFS) Mkdir(p string, mode uint32, cb func(abi.Errno)) {
	p = Clean(p)
	o.lock(func(release func()) {
		done := func(err abi.Errno) { cb(err); release() }
		if o.deleted[p] {
			delete(o.deleted, p)
			o.ensureUpperDirs(p, func(err abi.Errno) {
				if err != abi.OK {
					done(err)
					return
				}
				o.upper.Mkdir(p, mode, done)
			})
			return
		}
		o.Lstat(p, func(_ abi.Stat, err abi.Errno) {
			if err == abi.OK {
				done(abi.EEXIST)
				return
			}
			o.ensureUpperDirs(p, func(err abi.Errno) {
				if err != abi.OK {
					done(err)
					return
				}
				o.upper.Mkdir(p, mode, done)
			})
		})
	})
}

// Rmdir implements Backend.
func (o *OverlayFS) Rmdir(p string, cb func(abi.Errno)) {
	p = Clean(p)
	o.lock(func(release func()) {
		done := func(err abi.Errno) { cb(err); release() }
		o.Readdir(p, func(ents []abi.Dirent, err abi.Errno) {
			if err != abi.OK {
				done(err)
				return
			}
			if len(ents) > 0 {
				done(abi.ENOTEMPTY)
				return
			}
			o.upper.Rmdir(p, func(uerr abi.Errno) {
				o.lower.Stat(p, func(_ abi.Stat, lerr abi.Errno) {
					if lerr == abi.OK {
						o.deleted[p] = true
						done(abi.OK)
						return
					}
					done(uerr)
				})
			})
		})
	})
}

// Unlink implements Backend: removes from the upper layer and/or records a
// deletion hiding the lower-layer file.
func (o *OverlayFS) Unlink(p string, cb func(abi.Errno)) {
	p = Clean(p)
	o.lock(func(release func()) {
		done := func(err abi.Errno) { cb(err); release() }
		if o.deleted[p] {
			done(abi.ENOENT)
			return
		}
		o.upper.Unlink(p, func(uerr abi.Errno) {
			o.lower.Stat(p, func(lst abi.Stat, lerr abi.Errno) {
				if lerr == abi.OK {
					if lst.IsDir() {
						done(abi.EISDIR)
						return
					}
					o.deleted[p] = true
					done(abi.OK)
					return
				}
				done(uerr)
			})
		})
	})
}

// Rename implements Backend (copy-up then rename within the upper
// layer). A directory source is materialized in the upper layer with a
// recursive copy-up, renamed there in one operation, and the lower
// subtree it moved away from is hidden by a subtree whiteout — so
// renaming a lower-layer directory tree is a single overlay op, not a
// per-file dance.
func (o *OverlayFS) Rename(oldp, newp string, cb func(abi.Errno)) {
	oldp, newp = Clean(oldp), Clean(newp)
	o.lock(func(release func()) {
		done := func(err abi.Errno) { cb(err); release() }
		if o.deleted[oldp] {
			done(abi.ENOENT)
			return
		}
		finish := func() {
			// The destination's ancestors may exist only in the lower
			// layer (or nowhere in upper): materialize them before the
			// upper-layer rename.
			o.ensureUpperDirs(newp, func(err abi.Errno) {
				if err != abi.OK {
					done(err)
					return
				}
				o.upper.Rename(oldp, newp, func(err abi.Errno) {
					if err != abi.OK {
						done(err)
						return
					}
					// Deletions shadowing the destination would hide the
					// just-moved entries — but only whiteouts the moved
					// upper tree now covers may be cleared. A whiteout on
					// a lower-only path under newp (a file deleted before
					// the rename, never part of the moved tree) must
					// survive, or the rename resurrects it.
					var cands []string
					for dp := range o.deleted {
						if dp == newp || strings.HasPrefix(dp, newp+"/") {
							cands = append(cands, dp)
						}
					}
					var step func(i int)
					step = func(i int) {
						if i >= len(cands) {
							o.whiteoutLowerTree(oldp, func() { done(abi.OK) })
							return
						}
						dp := cands[i]
						o.upper.Lstat(dp, func(_ abi.Stat, uerr abi.Errno) {
							if uerr == abi.OK {
								delete(o.deleted, dp)
							}
							step(i + 1)
						})
					}
					step(0)
				})
			})
		}
		o.Lstat(oldp, func(ost abi.Stat, oerr abi.Errno) {
			if oerr != abi.OK {
				done(abi.ENOENT)
				return
			}
			if ost.IsDir() {
				o.copyUpTree(oldp, func(err abi.Errno) {
					if err != abi.OK {
						done(err)
						return
					}
					finish()
				})
				return
			}
			o.upper.Stat(oldp, func(_ abi.Stat, uerr abi.Errno) {
				if uerr == abi.OK {
					finish()
					return
				}
				o.copyUp(oldp, func(err abi.Errno) {
					if err != abi.OK {
						done(err)
						return
					}
					finish()
				})
			})
		})
	})
}

// copyUpTree materializes the merged subtree rooted at directory p
// entirely in the upper layer: directories created, regular files copied
// up (vectored, via copyUp), symlinks re-created. The recursive
// extension of copyUp behind directory renames. Runs under the overlay
// lock of its caller.
func (o *OverlayFS) copyUpTree(p string, cb func(abi.Errno)) {
	o.ensureUpperDirs(p, func(err abi.Errno) {
		if err != abi.OK {
			cb(err)
			return
		}
		o.upper.Mkdir(p, 0o755, func(merr abi.Errno) {
			if merr != abi.OK && merr != abi.EEXIST {
				cb(merr)
				return
			}
			o.Readdir(p, func(ents []abi.Dirent, rerr abi.Errno) {
				if rerr != abi.OK {
					cb(rerr)
					return
				}
				var step func(i int)
				step = func(i int) {
					if i >= len(ents) {
						cb(abi.OK)
						return
					}
					child := Clean(p + "/" + ents[i].Name)
					next := func(err abi.Errno) {
						if err != abi.OK {
							cb(err)
							return
						}
						step(i + 1)
					}
					o.Lstat(child, func(st abi.Stat, serr abi.Errno) {
						switch {
						case serr != abi.OK:
							step(i + 1) // vanished mid-walk
						case st.IsDir():
							o.copyUpTree(child, next)
						case st.IsSymlink():
							o.upper.Lstat(child, func(_ abi.Stat, uerr abi.Errno) {
								if uerr == abi.OK {
									step(i + 1)
									return
								}
								o.Readlink(child, func(target string, err abi.Errno) {
									if err != abi.OK {
										cb(err)
										return
									}
									o.upper.Symlink(target, child, func(err abi.Errno) {
										if err == abi.EEXIST {
											err = abi.OK
										}
										next(err)
									})
								})
							})
						default:
							o.upper.Stat(child, func(_ abi.Stat, uerr abi.Errno) {
								if uerr == abi.OK {
									step(i + 1)
									return
								}
								o.copyUp(child, next)
							})
						}
					})
				}
				step(0)
			})
		})
	})
}

// whiteoutLowerTree records deletions for p and every lower-layer path
// beneath it — the subtree whiteout that hides a renamed-away source in
// one pass. Paths absent from the lower layer need no whiteout.
func (o *OverlayFS) whiteoutLowerTree(p string, cb func()) {
	o.lower.Lstat(p, func(st abi.Stat, err abi.Errno) {
		if err != abi.OK {
			cb()
			return
		}
		o.deleted[p] = true
		if !st.IsDir() {
			cb()
			return
		}
		o.lower.Readdir(p, func(ents []abi.Dirent, rerr abi.Errno) {
			if rerr != abi.OK {
				cb()
				return
			}
			var step func(i int)
			step = func(i int) {
				if i >= len(ents) {
					cb()
					return
				}
				o.whiteoutLowerTree(Clean(p+"/"+ents[i].Name), func() { step(i + 1) })
			}
			step(0)
		})
	})
}

// Readlink implements Backend.
func (o *OverlayFS) Readlink(p string, cb func(string, abi.Errno)) {
	p = Clean(p)
	if o.deleted[p] {
		cb("", abi.ENOENT)
		return
	}
	o.upper.Readlink(p, func(t string, err abi.Errno) {
		if err == abi.OK {
			cb(t, abi.OK)
			return
		}
		o.lower.Readlink(p, cb)
	})
}

// Symlink implements Backend.
func (o *OverlayFS) Symlink(target, linkp string, cb func(abi.Errno)) {
	linkp = Clean(linkp)
	o.lock(func(release func()) {
		done := func(err abi.Errno) { cb(err); release() }
		delete(o.deleted, linkp)
		o.ensureUpperDirs(linkp, func(err abi.Errno) {
			if err != abi.OK {
				done(err)
				return
			}
			o.upper.Symlink(target, linkp, done)
		})
	})
}

// Utimes implements Backend: touching a lower-layer file copies it up
// first (make's timestamp dance requires this).
func (o *OverlayFS) Utimes(p string, atime, mtime int64, cb func(abi.Errno)) {
	p = Clean(p)
	o.lock(func(release func()) {
		done := func(err abi.Errno) { cb(err); release() }
		if o.deleted[p] {
			done(abi.ENOENT)
			return
		}
		o.upper.Utimes(p, atime, mtime, func(uerr abi.Errno) {
			if uerr == abi.OK {
				done(abi.OK)
				return
			}
			o.lower.Stat(p, func(_ abi.Stat, lerr abi.Errno) {
				if lerr != abi.OK {
					done(abi.ENOENT)
					return
				}
				o.copyUp(p, func(err abi.Errno) {
					if err != abi.OK {
						done(err)
						return
					}
					o.upper.Utimes(p, atime, mtime, done)
				})
			})
		})
	})
}

// DeletedPaths returns the deletion log (diagnostics/tests).
func (o *OverlayFS) DeletedPaths() []string {
	out := make([]string, 0, len(o.deleted))
	for p := range o.deleted {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
