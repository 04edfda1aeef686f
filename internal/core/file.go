// Package core implements the Browsix kernel (§3 of the paper): the
// component that lives in the main JavaScript context alongside the web
// application and mediates between processes (Web Workers) and the Unix
// subsystems — the shared file system, pipes, sockets, task structures and
// signals.
//
// Because it runs on the browser's main thread, the kernel can never
// block: every operation is continuation-passing style. Processes reach it
// two ways, mirroring §3.2:
//
//   - asynchronous system calls: a postMessage carrying {id, name, args},
//     answered by a postMessage carrying the results (all arguments
//     structured-cloned — no shared memory);
//   - synchronous system calls: the process registers its heap (a
//     SharedArrayBuffer) once, then sends small integer arguments;
//     results and bulk data are written directly into the process's heap
//     and the process is woken via Atomics.notify.
package core

import (
	"repro/internal/abi"
	"repro/internal/fs"
)

// File is an open kernel object: a regular file, directory, pipe end, or
// socket. All I/O is continuation-passing (the kernel cannot block).
// Sequential reads/writes go through the owning descriptor so dup'd
// descriptors share an offset, as on Unix.
type File interface {
	// Read reads up to n bytes at the descriptor's offset, advancing it.
	Read(d *Desc, n int, cb func([]byte, abi.Errno))
	// Write writes data at the descriptor's offset, advancing it.
	Write(d *Desc, data []byte, cb func(int, abi.Errno))
	// Pread/Pwrite are positional and do not move the offset.
	Pread(off int64, n int, cb func([]byte, abi.Errno))
	Pwrite(off int64, data []byte, cb func(int, abi.Errno))
	// Seek repositions the descriptor offset.
	Seek(d *Desc, off int64, whence int, cb func(int64, abi.Errno))
	// Stat describes the object.
	Stat(cb func(abi.Stat, abi.Errno))
	// Getdents streams directory entries if this is a directory: each
	// call returns the next chunk (at most abi.DirentChunk entries) from
	// the descriptor's cursor; an empty result marks the end. Large
	// directories are never materialized into one reply.
	Getdents(d *Desc, cb func([]abi.Dirent, abi.Errno))
	// Truncate resizes if this is a regular file.
	Truncate(size int64, cb func(abi.Errno))
	// Close releases the object (called once, when the last descriptor
	// referencing it goes away).
	Close(cb func(abi.Errno))
}

// Desc is a file descriptor table entry. Child processes inherit
// descriptor entries by reference (refs counts the referencing tables),
// so inherited descriptors share their offset — standard Unix semantics,
// and the reference counting the paper describes in §3.6.
type Desc struct {
	file  File
	off   int64
	flags int
	refs  int
	path  string // diagnostic: path for fs files, "pipe:[n]" etc.
}

// NewDesc wraps a File in a descriptor entry with one reference.
func NewDesc(f File, flags int, path string) *Desc {
	return &Desc{file: f, flags: flags, refs: 1, path: path}
}

// File returns the underlying kernel object.
func (d *Desc) File() File { return d.file }

// Path returns the descriptor's diagnostic path.
func (d *Desc) Path() string { return d.path }

// Ref adds a reference (descriptor inherited or dup'd).
func (d *Desc) Ref() { d.refs++ }

// Unref drops a reference, closing the file when it reaches zero.
func (d *Desc) Unref(cb func(abi.Errno)) {
	d.refs--
	if d.refs > 0 {
		cb(abi.OK)
		return
	}
	d.file.Close(cb)
}

// ---------------------------------------------------------------------------
// Regular files (backed by the shared BrowserFS instance, §3.6: "BROWSIX
// implements system calls that operate on paths as method calls to the
// kernel's BrowserFS instance").
// ---------------------------------------------------------------------------

type fsFile struct {
	h      fs.FileHandle
	append bool
}

// newFSFile wraps a BrowserFS handle.
func newFSFile(h fs.FileHandle, flags int) *fsFile {
	return &fsFile{h: h, append: flags&abi.O_APPEND != 0}
}

func (f *fsFile) Read(d *Desc, n int, cb func([]byte, abi.Errno)) {
	f.h.Pread(d.off, n, func(b []byte, err abi.Errno) {
		if err == abi.OK {
			d.off += int64(len(b))
		}
		cb(b, err)
	})
}

// writePos resolves the descriptor's write offset — O_APPEND seeks to
// EOF first — then runs the write; the scalar and vectored paths share
// this positioning protocol.
func (f *fsFile) writePos(d *Desc, write func(off int64), fail func(abi.Errno)) {
	if !f.append {
		write(d.off)
		return
	}
	f.h.Stat(func(st abi.Stat, err abi.Errno) {
		if err != abi.OK {
			fail(err)
			return
		}
		d.off = st.Size
		write(d.off)
	})
}

func (f *fsFile) Write(d *Desc, data []byte, cb func(int, abi.Errno)) {
	f.writePos(d, func(off int64) {
		f.h.Pwrite(off, data, func(n int, err abi.Errno) {
			if err == abi.OK {
				d.off += int64(n)
			}
			cb(n, err)
		})
	}, func(err abi.Errno) { cb(0, err) })
}

func (f *fsFile) Pread(off int64, n int, cb func([]byte, abi.Errno)) { f.h.Pread(off, n, cb) }
func (f *fsFile) Pwrite(off int64, data []byte, cb func(int, abi.Errno)) {
	f.h.Pwrite(off, data, cb)
}

// Preadv implements vectoredReader: the gather happens in the storage
// layer (page cache or backend) and comes back as segments, which the
// kernel copies straight into the process heap or reply — no coalescing
// buffer.
func (f *fsFile) Preadv(off int64, lens []int, cb func([][]byte, abi.Errno)) {
	f.h.Preadv(off, lens, cb)
}

// Writev implements vectoredWriter: the iovec segments the transport
// carried into the kernel reach the file handle in one vectored call.
func (f *fsFile) Writev(d *Desc, bufs [][]byte, cb func(int, abi.Errno)) {
	f.writePos(d, func(off int64) {
		f.h.Pwritev(off, bufs, func(n int, err abi.Errno) {
			if err == abi.OK {
				d.off += int64(n)
			}
			cb(n, err)
		})
	}, func(err abi.Errno) { cb(0, err) })
}

func (f *fsFile) Seek(d *Desc, off int64, whence int, cb func(int64, abi.Errno)) {
	seek(d, off, whence, f.h.Stat, cb)
}

// seek moves d's offset as lseek does: SEEK_SET counts from 0, SEEK_CUR
// from d's offset and SEEK_END from the size stat reports. An unknown
// whence or a negative result is EINVAL and leaves the offset unchanged.
func seek(d *Desc, off int64, whence int, stat func(func(abi.Stat, abi.Errno)), cb func(int64, abi.Errno)) {
	switch whence {
	case abi.SEEK_SET:
		seekFrom(d, 0, off, cb)
	case abi.SEEK_CUR:
		seekFrom(d, d.off, off, cb)
	case abi.SEEK_END:
		stat(func(st abi.Stat, err abi.Errno) {
			if err != abi.OK {
				cb(0, err)
				return
			}
			seekFrom(d, st.Size, off, cb)
		})
	default:
		cb(0, abi.EINVAL)
	}
}

// seekFrom moves d's offset to base+off, or answers EINVAL when that is
// negative.
func seekFrom(d *Desc, base, off int64, cb func(int64, abi.Errno)) {
	if base+off < 0 {
		cb(0, abi.EINVAL)
		return
	}
	d.off = base + off
	cb(d.off, abi.OK)
}

func (f *fsFile) Stat(cb func(abi.Stat, abi.Errno))                  { f.h.Stat(cb) }
func (f *fsFile) Getdents(d *Desc, cb func([]abi.Dirent, abi.Errno)) { cb(nil, abi.ENOTDIR) }
func (f *fsFile) Truncate(size int64, cb func(abi.Errno))            { f.h.Truncate(size, cb) }
func (f *fsFile) Close(cb func(abi.Errno))                           { f.h.Close(cb) }

// ---------------------------------------------------------------------------
// Directories. Opening a directory yields a dirFile whose Getdents lists it
// via the kernel's BrowserFS instance.
// ---------------------------------------------------------------------------

type dirFile struct {
	fs   *fs.FileSystem
	path string
}

func (f *dirFile) Read(d *Desc, n int, cb func([]byte, abi.Errno)) { cb(nil, abi.EISDIR) }
func (f *dirFile) Write(d *Desc, b []byte, cb func(int, abi.Errno)) {
	cb(0, abi.EISDIR)
}
func (f *dirFile) Pread(off int64, n int, cb func([]byte, abi.Errno)) { cb(nil, abi.EISDIR) }
func (f *dirFile) Pwrite(off int64, b []byte, cb func(int, abi.Errno)) {
	cb(0, abi.EISDIR)
}
func (f *dirFile) Truncate(s int64, cb func(abi.Errno)) { cb(abi.EISDIR) }

// Seek moves the getdents cursor as fsFile.Seek moves a file offset
// (SEEK_SET 0 is rewinddir); SEEK_END counts from the directory's size.
func (f *dirFile) Seek(d *Desc, off int64, whence int, cb func(int64, abi.Errno)) {
	seek(d, off, whence, f.Stat, cb)
}
func (f *dirFile) Stat(cb func(abi.Stat, abi.Errno)) { f.fs.Stat(f.path, cb) }

// Getdents streams the listing in DirentChunk-sized pieces using the
// descriptor offset as the entry cursor — a TeX Live directory of 10⁵
// names costs 10⁵/DirentChunk replies, not one reply of 10⁵ records.
// The listing itself comes from the VFS readdir cache, so continuation
// calls against an unchanged directory never re-hit a backend. Entries
// are index-addressed against the current (sorted) listing; mutations
// between chunks may skip or repeat names, the POSIX-sanctioned
// getdents weak ordering.
func (f *dirFile) Getdents(d *Desc, cb func([]abi.Dirent, abi.Errno)) {
	f.fs.Readdir(f.path, func(ents []abi.Dirent, err abi.Errno) {
		if err != abi.OK {
			cb(nil, err)
			return
		}
		off := int(d.off)
		if off >= len(ents) {
			cb(nil, abi.OK)
			return
		}
		end := off + abi.DirentChunk
		if end > len(ents) {
			end = len(ents)
		}
		d.off = int64(end)
		cb(ents[off:end], abi.OK)
	})
}
func (f *dirFile) Close(cb func(abi.Errno)) { cb(abi.OK) }
