package fs

import (
	"archive/zip"
	"bytes"
	"io"
	"path"

	"repro/internal/abi"
)

// ZipFS is BrowserFS's zip-file backend: a read-only file system served
// out of an in-memory zip archive. The central directory is indexed at
// mount time; file contents decompress lazily on first open and are then
// cached, analogous to the HTTP backend.
type ZipFS struct {
	files map[string]*zip.File
	dirs  map[string]map[string]bool
	cache map[string][]byte
	size  uint64 // archive bytes: no member's compressed data exceeds it
}

// NewZipFS indexes a zip archive held in memory.
func NewZipFS(archive []byte) (*ZipFS, error) {
	zr, err := zip.NewReader(bytes.NewReader(archive), int64(len(archive)))
	if err != nil {
		return nil, err
	}
	z := &ZipFS{
		files: map[string]*zip.File{},
		dirs:  map[string]map[string]bool{"/": {}},
		cache: map[string][]byte{},
		size:  uint64(len(archive)),
	}
	for _, f := range zr.File {
		p := Clean("/" + f.Name)
		if f.FileInfo().IsDir() {
			if z.dirs[p] == nil {
				z.dirs[p] = map[string]bool{}
			}
			continue
		}
		z.files[p] = f
		for dir := path.Dir(p); ; dir = path.Dir(dir) {
			if z.dirs[dir] == nil {
				z.dirs[dir] = map[string]bool{}
			}
			if dir == "/" {
				break
			}
		}
		z.dirs[path.Dir(p)][path.Base(p)] = false
		for dir := path.Dir(p); dir != "/"; dir = path.Dir(dir) {
			z.dirs[path.Dir(dir)][path.Base(dir)] = true
		}
	}
	return z, nil
}

// Name implements Backend.
func (z *ZipFS) Name() string { return "zipfs" }

// ReadOnly implements Backend.
func (z *ZipFS) ReadOnly() bool { return true }

// Stat implements Backend.
func (z *ZipFS) Stat(p string, cb func(abi.Stat, abi.Errno)) {
	p = Clean(p)
	if _, ok := z.dirs[p]; ok {
		cb(abi.Stat{Mode: abi.S_IFDIR | 0o555, Nlink: 1}, abi.OK)
		return
	}
	if f, ok := z.files[p]; ok {
		cb(abi.Stat{Mode: abi.S_IFREG | 0o444, Size: int64(f.UncompressedSize64), Nlink: 1}, abi.OK)
		return
	}
	cb(abi.Stat{}, abi.ENOENT)
}

// Lstat implements Backend.
func (z *ZipFS) Lstat(p string, cb func(abi.Stat, abi.Errno)) { z.Stat(p, cb) }

// maxDeflateRatio bounds DEFLATE's expansion: a 258-byte match costs at
// least two bits, so no stream decompresses to more than 1032 times its
// size.
const maxDeflateRatio = 1032

// plausibleSize reports whether f's compressed bytes can produce the
// uncompressed size its header declares. Both sizes come from the
// archive, so a corrupt or hostile member may claim any size; checking
// before contents allocates the declared size keeps such a member an
// EIO instead of a host panic or an out-of-memory.
func (z *ZipFS) plausibleSize(f *zip.File) bool {
	if f.CompressedSize64 > z.size {
		return false
	}
	switch f.Method {
	case zip.Store:
		return f.UncompressedSize64 == f.CompressedSize64
	case zip.Deflate:
		return f.UncompressedSize64/maxDeflateRatio <= f.CompressedSize64
	}
	return true // f.Open refuses a method it cannot decompress
}

func (z *ZipFS) contents(p string) ([]byte, abi.Errno) {
	if b, ok := z.cache[p]; ok {
		return b, abi.OK
	}
	f, ok := z.files[p]
	if !ok {
		return nil, abi.ENOENT
	}
	if !z.plausibleSize(f) {
		return nil, abi.EIO
	}
	rc, err := f.Open()
	if err != nil {
		return nil, abi.EIO
	}
	defer rc.Close()
	// Decompress straight into an exact-size buffer (the member's
	// declared uncompressed size) instead of io.ReadAll's grow-and-copy
	// staging: one allocation, zero intermediate copies. The resident
	// buffer then serves page faults by stable subslices (PreadSlice),
	// so a cold fault's only copy is into its destination arena slot.
	b := make([]byte, f.UncompressedSize64)
	if _, err := io.ReadFull(rc, b); err != nil {
		return nil, abi.EIO // truncated or corrupt member
	}
	// A well-formed member ends exactly at its declared size. Reading
	// one byte past it both rejects oversized members and drives the
	// reader to EOF, where archive/zip verifies the CRC.
	if n, err := rc.Read(make([]byte, 1)); n != 0 || (err != nil && err != io.EOF) {
		return nil, abi.EIO
	}
	z.cache[p] = b
	return b, abi.OK
}

// Open implements Backend.
func (z *ZipFS) Open(p string, flags int, mode uint32, cb func(FileHandle, abi.Errno)) {
	p = Clean(p)
	if flags&abi.O_ACCMODE != abi.O_RDONLY || flags&(abi.O_CREAT|abi.O_TRUNC) != 0 {
		cb(nil, abi.EROFS)
		return
	}
	if _, ok := z.dirs[p]; ok {
		cb(nil, abi.EISDIR)
		return
	}
	data, err := z.contents(p)
	if err != abi.OK {
		cb(nil, err)
		return
	}
	cb(&httpHandle{path: p, data: data}, abi.OK)
}

// Readdir implements Backend.
func (z *ZipFS) Readdir(p string, cb func([]abi.Dirent, abi.Errno)) {
	p = Clean(p)
	children, ok := z.dirs[p]
	if !ok {
		if _, isFile := z.files[p]; isFile {
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

// Mutating operations fail with EROFS.
func (z *ZipFS) Mkdir(p string, m uint32, cb func(abi.Errno))    { cb(abi.EROFS) }
func (z *ZipFS) Rmdir(p string, cb func(abi.Errno))              { cb(abi.EROFS) }
func (z *ZipFS) Unlink(p string, cb func(abi.Errno))             { cb(abi.EROFS) }
func (z *ZipFS) Rename(o, n string, cb func(abi.Errno))          { cb(abi.EROFS) }
func (z *ZipFS) Readlink(p string, cb func(string, abi.Errno))   { cb("", abi.EINVAL) }
func (z *ZipFS) Symlink(t, l string, cb func(abi.Errno))         { cb(abi.EROFS) }
func (z *ZipFS) Utimes(p string, a, m int64, cb func(abi.Errno)) { cb(abi.EROFS) }
