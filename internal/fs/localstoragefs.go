package fs

import (
	"repro/internal/abi"
)

// LocalStorageFS models BrowserFS's localStorage backend: a persistent,
// writable store subject to the browser's storage quota (~5 MB in the
// paper's era). Writes that would exceed the quota fail with ENOSPC —
// the failure mode web applications using localStorage-backed mounts
// must handle.
//
// It decorates a MemFS with usage accounting; "persistence" in the
// simulator means the backend object outlives kernel reboots when the
// host test reuses it (Snapshot/Restore cover the serialize-to-string
// behaviour localStorage imposes).
type LocalStorageFS struct {
	*MemFS
	quota int64
	used  int64
}

// DefaultLocalStorageQuota is the classic 5 MB browser limit.
const DefaultLocalStorageQuota = 5 << 20

// NewLocalStorageFS creates a quota-limited writable backend. quota<=0
// selects the default.
func NewLocalStorageFS(now func() int64, quota int64) *LocalStorageFS {
	if quota <= 0 {
		quota = DefaultLocalStorageQuota
	}
	return &LocalStorageFS{MemFS: NewMemFS(now), quota: quota}
}

// Name implements Backend.
func (l *LocalStorageFS) Name() string { return "localstorage" }

// Used reports bytes charged against the quota.
func (l *LocalStorageFS) Used() int64 { return l.used }

// Quota reports the configured limit.
func (l *LocalStorageFS) Quota() int64 { return l.quota }

// Open wraps handles so writes go through quota accounting. localStorage
// stores string key/values, so the per-file overhead of the real backend
// is ignored; only content bytes count.
func (l *LocalStorageFS) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	// Capture pre-truncation size so O_TRUNC refunds quota.
	l.MemFS.Lstat(p, func(st abi.Stat, serr abi.Errno) {
		if serr == abi.OK && flags&abi.O_TRUNC != 0 {
			l.used -= st.Size
			if l.used < 0 {
				l.used = 0
			}
		}
		l.MemFS.Open(p, flags, mode, func(h FileHandle, err abi.Errno) {
			if err != abi.OK {
				cb(nil, err)
				return
			}
			cb(&quotaHandle{FileHandle: h, fs: l}, abi.OK)
		})
	})
}

// Unlink refunds quota for removed content.
func (l *LocalStorageFS) Unlink(p string, cb func(abi.Errno)) {
	l.MemFS.Lstat(p, func(st abi.Stat, serr abi.Errno) {
		l.MemFS.Unlink(p, func(err abi.Errno) {
			if err == abi.OK && serr == abi.OK {
				l.used -= st.Size
				if l.used < 0 {
					l.used = 0
				}
			}
			cb(err)
		})
	})
}

// quotaHandle enforces the quota on growth.
type quotaHandle struct {
	FileHandle
	fs *LocalStorageFS
}

func (q *quotaHandle) Pwrite(off int64, data []byte, cb func(int, abi.Errno)) {
	q.FileHandle.Stat(func(st abi.Stat, err abi.Errno) {
		if err != abi.OK {
			cb(0, err)
			return
		}
		growth := off + int64(len(data)) - st.Size
		if growth < 0 {
			growth = 0
		}
		if q.fs.used+growth > q.fs.quota {
			cb(0, abi.ENOSPC)
			return
		}
		q.FileHandle.Pwrite(off, data, func(n int, err abi.Errno) {
			if err == abi.OK {
				actual := off + int64(n) - st.Size
				if actual > 0 {
					q.fs.used += actual
				}
			}
			cb(n, err)
		})
	})
}

// Pwritev enforces the quota on the summed growth before delegating, so
// a vectored write cannot sneak past the limit buffer by buffer.
func (q *quotaHandle) Pwritev(off int64, bufs [][]byte, cb func(int, abi.Errno)) {
	q.FileHandle.Stat(func(st abi.Stat, err abi.Errno) {
		if err != abi.OK {
			cb(0, err)
			return
		}
		var total int64
		for _, b := range bufs {
			total += int64(len(b))
		}
		growth := off + total - st.Size
		if growth < 0 {
			growth = 0
		}
		if q.fs.used+growth > q.fs.quota {
			cb(0, abi.ENOSPC)
			return
		}
		q.FileHandle.Pwritev(off, bufs, func(n int, err abi.Errno) {
			if err == abi.OK {
				actual := off + int64(n) - st.Size
				if actual > 0 {
					q.fs.used += actual
				}
			}
			cb(n, err)
		})
	})
}

func (q *quotaHandle) Truncate(size int64, cb func(abi.Errno)) {
	q.FileHandle.Stat(func(st abi.Stat, err abi.Errno) {
		if err != abi.OK {
			cb(err)
			return
		}
		growth := size - st.Size
		if q.fs.used+growth > q.fs.quota {
			cb(abi.ENOSPC)
			return
		}
		q.FileHandle.Truncate(size, func(err abi.Errno) {
			if err == abi.OK {
				q.fs.used += growth
				if q.fs.used < 0 {
					q.fs.used = 0
				}
			}
			cb(err)
		})
	})
}
