package browsix

import (
	"io"
	iofs "io/fs"
	"path"
	"time"

	"repro/internal/abi"
	"repro/internal/fs"
)

// This file is the file-system half of the public API: a Go-native,
// synchronous io/fs facade over the kernel's CPS VFS. Every operation
// posts to the simulated main thread through Instance.drive and runs the
// simulation until the VFS completes — lazy HTTP fetches, overlay
// copy-ups and all — so ordinary Go code (io/fs walkers, testing/fstest,
// html/template.ParseFS, ...) works against any mounted backend.

// FS returns the io/fs facade rooted at the instance's "/". The view
// implements fs.FS, fs.ReadDirFS, fs.StatFS, fs.ReadFileFS, fs.GlobFS
// and fs.SubFS, plus the write-side extensions below.
func (in *Instance) FS() *FSView { return &FSView{in: in, root: "/"} }

// FSView is a synchronous file-system view rooted at a directory of the
// instance's VFS. io/fs naming rules apply: paths are slash-separated,
// relative, and "." names the root of the view.
type FSView struct {
	in   *Instance
	root string // absolute VFS path, no trailing slash except "/"
}

// Interface conformance (the facade's contract with the stdlib).
var (
	_ iofs.FS         = (*FSView)(nil)
	_ iofs.ReadDirFS  = (*FSView)(nil)
	_ iofs.StatFS     = (*FSView)(nil)
	_ iofs.ReadFileFS = (*FSView)(nil)
	_ iofs.GlobFS     = (*FSView)(nil)
	_ iofs.SubFS      = (*FSView)(nil)
)

// abs maps an io/fs name into the VFS, rejecting invalid names.
func (v *FSView) abs(op, name string) (string, error) {
	if !iofs.ValidPath(name) {
		return "", &iofs.PathError{Op: op, Path: name, Err: iofs.ErrInvalid}
	}
	if name == "." {
		return v.root, nil
	}
	if v.root == "/" {
		return "/" + name, nil
	}
	return v.root + "/" + name, nil
}

// errnoErr adapts a kernel errno into the error chain: the result
// errors.Is-matches both the exact Errno and, where one exists, the
// io/fs sentinel (fs.ErrNotExist, ...), so stdlib callers and
// errno-precise callers both work.
func errnoErr(e Errno) error {
	var sentinel error
	switch e {
	case abi.ENOENT:
		sentinel = iofs.ErrNotExist
	case abi.EEXIST:
		sentinel = iofs.ErrExist
	case abi.EINVAL:
		sentinel = iofs.ErrInvalid
	case abi.EPERM, abi.EACCES:
		sentinel = iofs.ErrPermission
	default:
		return e
	}
	return &errnoCause{errno: e, sentinel: sentinel}
}

// errnoCause carries a kernel errno alongside its io/fs sentinel:
// errors.Is matches the errno directly (Is) and the sentinel through
// Unwrap.
type errnoCause struct {
	errno    Errno
	sentinel error
}

func (c *errnoCause) Error() string        { return c.errno.String() }
func (c *errnoCause) Unwrap() error        { return c.sentinel }
func (c *errnoCause) Is(target error) bool { return target == error(c.errno) }

func pathErr(op, name string, e Errno) error {
	return &iofs.PathError{Op: op, Path: name, Err: errnoErr(e)}
}

// Open opens a file or directory for reading. Directories implement
// fs.ReadDirFile.
func (v *FSView) Open(name string) (iofs.File, error) {
	ap, err := v.abs("open", name)
	if err != nil {
		return nil, err
	}
	// One drive round trip: stat, and for regular files continue
	// straight into the backend open inside the same simulator event
	// chain (no host-visible window between the two).
	var st abi.Stat
	var h fs.FileHandle
	serr := Errno(-1)
	if !v.in.drive(func(done func()) {
		v.in.VFS.Stat(ap, func(s abi.Stat, e Errno) {
			st, serr = s, e
			if e != abi.OK || s.IsDir() {
				done()
				return
			}
			v.in.VFS.Open(ap, abi.O_RDONLY, 0, func(fh fs.FileHandle, e2 Errno) {
				h, serr = fh, e2
				done()
			})
		})
	}) {
		return nil, v.in.deadlockErr("open " + name)
	}
	if serr != abi.OK {
		return nil, pathErr("open", name, serr)
	}
	base := path.Base(name)
	if st.IsDir() {
		return &viewDir{v: v, name: name, info: fileInfo{base, st}}, nil
	}
	return &viewFile{v: v, name: name, h: h, info: fileInfo{base, st}}, nil
}

// ReadDir lists a directory, sorted by name (the VFS already sorts).
func (v *FSView) ReadDir(name string) ([]iofs.DirEntry, error) {
	ap, err := v.abs("readdir", name)
	if err != nil {
		return nil, err
	}
	var ents []abi.Dirent
	rerr := Errno(-1)
	if !v.in.drive(func(done func()) {
		v.in.VFS.Readdir(ap, func(es []abi.Dirent, e Errno) { ents, rerr = es, e; done() })
	}) {
		return nil, v.in.deadlockErr("readdir " + name)
	}
	if rerr != abi.OK {
		return nil, pathErr("readdir", name, rerr)
	}
	out := make([]iofs.DirEntry, len(ents))
	for i, e := range ents {
		out[i] = &dirEntry{v: v, dir: name, ent: e}
	}
	return out, nil
}

// Stat stats a path, following symlinks.
func (v *FSView) Stat(name string) (iofs.FileInfo, error) {
	ap, err := v.abs("stat", name)
	if err != nil {
		return nil, err
	}
	var st abi.Stat
	serr := Errno(-1)
	if !v.in.drive(func(done func()) {
		v.in.VFS.Stat(ap, func(s abi.Stat, e Errno) { st, serr = s, e; done() })
	}) {
		return nil, v.in.deadlockErr("stat " + name)
	}
	if serr != abi.OK {
		return nil, pathErr("stat", name, serr)
	}
	return fileInfo{path.Base(name), st}, nil
}

// ReadFile slurps a file, driving any lazy backend fetch it needs.
func (v *FSView) ReadFile(name string) ([]byte, error) {
	ap, err := v.abs("readfile", name)
	if err != nil {
		return nil, err
	}
	var data []byte
	rerr := Errno(-1)
	if !v.in.drive(func(done func()) {
		v.in.VFS.ReadFile(ap, func(b []byte, e Errno) { data, rerr = b, e; done() })
	}) {
		return nil, v.in.deadlockErr("readfile " + name)
	}
	if rerr != abi.OK {
		return nil, pathErr("readfile", name, rerr)
	}
	// A Pread result belongs to its caller (fs.FileHandle): page-cache
	// hits gather into fresh bytes and misses copy out of the backend,
	// so the io/fs contract that the caller owns the result holds as is.
	return data, nil
}

// Glob returns the names matching pattern, with path.Match semantics.
func (v *FSView) Glob(pattern string) ([]string, error) {
	// Delegate to fs.Glob over a shim that hides this method, keeping
	// exactly the stdlib's semantics while every directory listing runs
	// through the (cached) VFS Readdir.
	return iofs.Glob(globShim{v}, pattern)
}

// globShim exposes the view without GlobFS so fs.Glob does the walking.
type globShim struct{ v *FSView }

func (g globShim) Open(name string) (iofs.File, error)          { return g.v.Open(name) }
func (g globShim) ReadDir(name string) ([]iofs.DirEntry, error) { return g.v.ReadDir(name) }

// Sub returns the view rooted at dir. The result is a *FSView, so the
// write extensions remain available behind a type assertion.
func (v *FSView) Sub(dir string) (iofs.FS, error) {
	if dir == "." {
		return v, nil
	}
	ap, err := v.abs("sub", dir)
	if err != nil {
		return nil, err
	}
	return &FSView{in: v.in, root: ap}, nil
}

// ---------------------------------------------------------------------------
// Write-side extensions (beyond io/fs, which is read-only).
// ---------------------------------------------------------------------------

// driveErr runs one CPS errno operation to completion.
func (v *FSView) driveErr(op, name string, fn func(cb func(Errno))) error {
	out := Errno(-1)
	if !v.in.drive(func(done func()) {
		fn(func(e Errno) { out = e; done() })
	}) {
		return v.in.deadlockErr(op + " " + name)
	}
	if out != abi.OK {
		return pathErr(op, name, out)
	}
	return nil
}

// WriteFile creates or truncates name with data.
func (v *FSView) WriteFile(name string, data []byte, perm iofs.FileMode) error {
	ap, err := v.abs("writefile", name)
	if err != nil {
		return err
	}
	return v.driveErr("writefile", name, func(cb func(Errno)) {
		v.in.VFS.WriteFile(ap, data, uint32(perm.Perm()), cb)
	})
}

// Mkdir creates a single directory.
func (v *FSView) Mkdir(name string, perm iofs.FileMode) error {
	ap, err := v.abs("mkdir", name)
	if err != nil {
		return err
	}
	return v.driveErr("mkdir", name, func(cb func(Errno)) {
		v.in.VFS.Mkdir(ap, uint32(perm.Perm()), cb)
	})
}

// MkdirAll creates a directory and any missing parents.
func (v *FSView) MkdirAll(name string, perm iofs.FileMode) error {
	ap, err := v.abs("mkdirall", name)
	if err != nil {
		return err
	}
	return v.driveErr("mkdirall", name, func(cb func(Errno)) {
		v.in.VFS.MkdirAll(ap, uint32(perm.Perm()), cb)
	})
}

// Remove removes a file, symlink, or empty directory.
func (v *FSView) Remove(name string) error {
	ap, err := v.abs("remove", name)
	if err != nil {
		return err
	}
	return v.driveErr("remove", name, func(cb func(Errno)) {
		v.in.VFS.Lstat(ap, func(st abi.Stat, e Errno) {
			if e != abi.OK {
				cb(e)
				return
			}
			if st.IsDir() {
				v.in.VFS.Rmdir(ap, cb)
				return
			}
			v.in.VFS.Unlink(ap, cb)
		})
	})
}

// Rename moves oldname to newname (same backend; EXDEV otherwise).
func (v *FSView) Rename(oldname, newname string) error {
	op, err := v.abs("rename", oldname)
	if err != nil {
		return err
	}
	np, err := v.abs("rename", newname)
	if err != nil {
		return err
	}
	return v.driveErr("rename", oldname+" -> "+newname, func(cb func(Errno)) {
		v.in.VFS.Rename(op, np, cb)
	})
}

// Symlink creates newname as a symbolic link to target. target is kept
// verbatim (it may be relative to newname's directory, like ln -s).
func (v *FSView) Symlink(target, newname string) error {
	np, err := v.abs("symlink", newname)
	if err != nil {
		return err
	}
	return v.driveErr("symlink", newname, func(cb func(Errno)) {
		v.in.VFS.Symlink(target, np, cb)
	})
}

// ---------------------------------------------------------------------------
// fs.File / fs.ReadDirFile / fs.FileInfo / fs.DirEntry adapters.
// ---------------------------------------------------------------------------

// viewFile adapts a VFS file handle to fs.File; reads drive the sim.
type viewFile struct {
	v      *FSView
	name   string
	h      fs.FileHandle
	info   fileInfo
	off    int64
	closed bool
}

func (f *viewFile) Stat() (iofs.FileInfo, error) { return f.info, nil }

func (f *viewFile) Read(b []byte) (int, error) {
	if f.closed {
		return 0, &iofs.PathError{Op: "read", Path: f.name, Err: iofs.ErrClosed}
	}
	if len(b) == 0 {
		return 0, nil
	}
	var data []byte
	rerr := Errno(-1)
	if !f.v.in.drive(func(done func()) {
		f.h.Pread(f.off, len(b), func(d []byte, e Errno) { data, rerr = d, e; done() })
	}) {
		return 0, f.v.in.deadlockErr("read " + f.name)
	}
	if rerr != abi.OK {
		return 0, pathErr("read", f.name, rerr)
	}
	if len(data) == 0 {
		return 0, io.EOF
	}
	n := copy(b, data)
	f.off += int64(n)
	return n, nil
}

func (f *viewFile) Close() error {
	if f.closed {
		return &iofs.PathError{Op: "close", Path: f.name, Err: iofs.ErrClosed}
	}
	f.closed = true
	f.v.in.drive(func(done func()) { f.h.Close(func(Errno) { done() }) })
	return nil
}

// viewDir adapts a directory to fs.ReadDirFile with paged ReadDir.
type viewDir struct {
	v      *FSView
	name   string
	info   fileInfo
	ents   []iofs.DirEntry
	loaded bool
	off    int
	closed bool
}

func (d *viewDir) Stat() (iofs.FileInfo, error) { return d.info, nil }
func (d *viewDir) Read([]byte) (int, error) {
	return 0, &iofs.PathError{Op: "read", Path: d.name, Err: iofs.ErrInvalid}
}
func (d *viewDir) Close() error { d.closed = true; return nil }

func (d *viewDir) ReadDir(n int) ([]iofs.DirEntry, error) {
	if d.closed {
		return nil, &iofs.PathError{Op: "readdir", Path: d.name, Err: iofs.ErrClosed}
	}
	if !d.loaded {
		ents, err := d.v.ReadDir(d.name)
		if err != nil {
			return nil, err
		}
		d.ents, d.loaded = ents, true
	}
	rest := d.ents[d.off:]
	if n <= 0 {
		d.off = len(d.ents)
		return rest, nil
	}
	if len(rest) == 0 {
		return nil, io.EOF
	}
	if n > len(rest) {
		n = len(rest)
	}
	d.off += n
	return rest[:n], nil
}

// fileInfo adapts abi.Stat to fs.FileInfo. ModTime is virtual time
// (nanoseconds since boot).
type fileInfo struct {
	name string
	st   abi.Stat
}

func (fi fileInfo) Name() string        { return fi.name }
func (fi fileInfo) Size() int64         { return fi.st.Size }
func (fi fileInfo) Mode() iofs.FileMode { return fileMode(fi.st.Mode) }
func (fi fileInfo) ModTime() time.Time  { return time.Unix(0, fi.st.Mtime) }
func (fi fileInfo) IsDir() bool         { return fi.st.IsDir() }
func (fi fileInfo) Sys() any            { return fi.st }

func fileMode(mode uint32) iofs.FileMode {
	m := iofs.FileMode(mode & 0o777)
	switch mode & abi.S_IFMT {
	case abi.S_IFDIR:
		m |= iofs.ModeDir
	case abi.S_IFLNK:
		m |= iofs.ModeSymlink
	case abi.S_IFIFO:
		m |= iofs.ModeNamedPipe
	case abi.S_IFSOCK:
		m |= iofs.ModeSocket
	case abi.S_IFCHR:
		m |= iofs.ModeDevice | iofs.ModeCharDevice
	}
	return m
}

// dirEntry adapts abi.Dirent; Info is resolved lazily with lstat
// semantics, as os.ReadDir documents.
type dirEntry struct {
	v   *FSView
	dir string
	ent abi.Dirent
}

func (e *dirEntry) Name() string { return e.ent.Name }
func (e *dirEntry) IsDir() bool  { return e.ent.Type == abi.DT_DIR }

func (e *dirEntry) Type() iofs.FileMode {
	switch e.ent.Type {
	case abi.DT_DIR:
		return iofs.ModeDir
	case abi.DT_LNK:
		return iofs.ModeSymlink
	case abi.DT_FIFO:
		return iofs.ModeNamedPipe
	case abi.DT_SOCK:
		return iofs.ModeSocket
	case abi.DT_CHR:
		return iofs.ModeDevice | iofs.ModeCharDevice
	}
	return 0
}

func (e *dirEntry) Info() (iofs.FileInfo, error) {
	child := e.ent.Name
	if e.dir != "." {
		child = e.dir + "/" + e.ent.Name
	}
	ap, err := e.v.abs("stat", child)
	if err != nil {
		return nil, err
	}
	var st abi.Stat
	serr := Errno(-1)
	if !e.v.in.drive(func(done func()) {
		e.v.in.VFS.Lstat(ap, func(s abi.Stat, er Errno) { st, serr = s, er; done() })
	}) {
		return nil, e.v.in.deadlockErr("stat " + child)
	}
	if serr != abi.OK {
		return nil, pathErr("stat", child, serr)
	}
	return fileInfo{e.ent.Name, st}, nil
}
