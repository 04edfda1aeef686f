package posix

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/abi"
)

// Helper routines programs share — the "libc" above raw system calls.

// DefaultChunk is the buffered-I/O chunk size runtimes and utilities use.
const DefaultChunk = 16 * 1024

// WriteAll writes all of b to fd, looping on short writes.
func WriteAll(p Proc, fd int, b []byte) abi.Errno {
	for len(b) > 0 {
		n, err := p.Write(fd, b)
		if err != abi.OK {
			return err
		}
		if n <= 0 {
			return abi.EIO
		}
		b = b[n:]
	}
	return abi.OK
}

// WriteString writes a string to fd.
func WriteString(p Proc, fd int, s string) abi.Errno { return WriteAll(p, fd, []byte(s)) }

// Fprintf formats to fd.
func Fprintf(p Proc, fd int, format string, args ...any) abi.Errno {
	return WriteString(p, fd, fmt.Sprintf(format, args...))
}

// ReadAll reads fd to EOF. It keeps the chunks Read returns and joins
// them once at the end; a file read in one chunk comes back as that
// chunk. On an error it returns what it read before the error.
func ReadAll(p Proc, fd int) ([]byte, abi.Errno) {
	var small [8][]byte // most files fit; more chunks move to the heap
	chunks := small[:0]
	for {
		b, err := p.Read(fd, DefaultChunk)
		if err == abi.OK && len(b) > 0 {
			chunks = append(chunks, b)
			continue
		}
		switch len(chunks) {
		case 0:
			return nil, err
		case 1:
			return chunks[0], err
		}
		return bytes.Join(chunks, nil), err
	}
}

// ReadFile slurps a file by path.
func ReadFile(p Proc, path string) ([]byte, abi.Errno) {
	fd, err := p.Open(path, abi.O_RDONLY, 0)
	if err != abi.OK {
		return nil, err
	}
	defer p.Close(fd)
	return ReadAll(p, fd)
}

// WriteFile creates/truncates a file with contents.
func WriteFile(p Proc, path string, data []byte, mode uint32) abi.Errno {
	fd, err := p.Open(path, abi.O_WRONLY|abi.O_CREAT|abi.O_TRUNC, mode)
	if err != abi.OK {
		return err
	}
	werr := WriteAll(p, fd, data)
	cerr := p.Close(fd)
	if werr != abi.OK {
		return werr
	}
	return cerr
}

// WritevAll writes every buffer to fd with vectored calls, looping on
// short writes.
func WritevAll(p Proc, fd int, bufs [][]byte) abi.Errno {
	// Advance through a private copy of the segment list: callers (tee)
	// reuse the same list for several outputs, and a short write must
	// not truncate their view.
	bufs = append([][]byte(nil), bufs...)
	var want int64
	for _, b := range bufs {
		want += int64(len(b))
	}
	for want > 0 {
		n, err := p.Writev(fd, bufs)
		if err != abi.OK {
			return err
		}
		if n <= 0 {
			return abi.EIO
		}
		want -= n
		if want <= 0 {
			return abi.OK
		}
		for n > 0 && len(bufs) > 0 {
			if int64(len(bufs[0])) <= n {
				n -= int64(len(bufs[0]))
				bufs = bufs[1:]
			} else {
				bufs[0] = bufs[0][n:]
				n = 0
			}
		}
	}
	return abi.OK
}

// WriteLines emits each line (newline-terminated) as one fragment of a
// single vectored write — the multi-fragment output path utilities like
// ls and env use instead of a write per line.
func WriteLines(p Proc, fd int, lines []string) abi.Errno {
	if len(lines) == 0 {
		return abi.OK
	}
	bufs := make([][]byte, len(lines))
	for i, l := range lines {
		bufs[i] = []byte(l + "\n")
	}
	return WritevAll(p, fd, bufs)
}

// VectoredChunks is how many DefaultChunk iovecs CopyFdVectored moves per
// kernel crossing (4 × 16 KiB = one pipe capacity per crossing).
const VectoredChunks = 4

// VectoredLens is the standard readv length vector: VectoredChunks
// iovecs of DefaultChunk each.
func VectoredLens() []int {
	lens := make([]int, VectoredChunks)
	for i := range lens {
		lens[i] = DefaultChunk
	}
	return lens
}

// CopyFdVectored streams src to dst until EOF using readv/writev —
// VectoredChunks×DefaultChunk bytes per kernel crossing instead of one
// DefaultChunk read and one write each. Returns bytes copied.
func CopyFdVectored(p Proc, dst, src int) (int64, abi.Errno) {
	lens := VectoredLens()
	var total int64
	for {
		segs, err := p.Readv(src, lens)
		if err != abi.OK {
			return total, err
		}
		if len(segs) == 0 {
			return total, abi.OK
		}
		var n int64
		for _, s := range segs {
			n += int64(len(s))
		}
		if werr := WritevAll(p, dst, segs); werr != abi.OK {
			return total, werr
		}
		total += n
	}
}

// CopyFd streams src to dst until EOF, returning bytes copied.
func CopyFd(p Proc, dst, src int) (int64, abi.Errno) {
	var total int64
	for {
		b, err := p.Read(src, DefaultChunk)
		if err != abi.OK {
			return total, err
		}
		if len(b) == 0 {
			return total, abi.OK
		}
		if err := WriteAll(p, dst, b); err != abi.OK {
			return total, err
		}
		total += int64(len(b))
	}
}

// LineReader reads lines from a descriptor with internal buffering.
type LineReader struct {
	p   Proc
	fd  int
	buf []byte
	eof bool
}

// NewLineReader wraps fd for line-at-a-time reading.
func NewLineReader(p Proc, fd int) *LineReader { return &LineReader{p: p, fd: fd} }

// ReadLine returns the next line without its trailing newline; ok=false at
// EOF (after the final, possibly unterminated, line has been returned).
func (lr *LineReader) ReadLine() (string, bool, abi.Errno) {
	for {
		if i := strings.IndexByte(string(lr.buf), '\n'); i >= 0 {
			line := string(lr.buf[:i])
			lr.buf = lr.buf[i+1:]
			return line, true, abi.OK
		}
		if lr.eof {
			if len(lr.buf) > 0 {
				line := string(lr.buf)
				lr.buf = nil
				return line, true, abi.OK
			}
			return "", false, abi.OK
		}
		b, err := lr.p.Read(lr.fd, DefaultChunk)
		if err != abi.OK {
			return "", false, err
		}
		if len(b) == 0 {
			lr.eof = true
			continue
		}
		lr.buf = append(lr.buf, b...)
	}
}

// Lines reads all lines from fd.
func Lines(p Proc, fd int) ([]string, abi.Errno) {
	lr := NewLineReader(p, fd)
	var out []string
	for {
		line, ok, err := lr.ReadLine()
		if err != abi.OK {
			return out, err
		}
		if !ok {
			return out, abi.OK
		}
		out = append(out, line)
	}
}

// Getenv looks a key up in an environment list ("K=V" strings).
func Getenv(env []string, key string) string {
	for _, kv := range env {
		if len(kv) > len(key) && kv[len(key)] == '=' && kv[:len(key)] == key {
			return kv[len(key)+1:]
		}
	}
	return ""
}

// SetEnv returns env with key set to value, replacing any existing entry.
func SetEnv(env []string, key, value string) []string {
	for i, kv := range env {
		if len(kv) > len(key) && kv[len(key)] == '=' && kv[:len(key)] == key {
			env[i] = key + "=" + value
			return env
		}
	}
	return append(env, key+"="+value)
}

// JoinNul packs strings NUL-separated for the sync-spawn transport.
func JoinNul(ss []string) string {
	if len(ss) == 0 {
		return ""
	}
	return strings.Join(ss, "\x00") + "\x00"
}

// ReadDir drains a directory fd through getdents continuation calls —
// the readdir(3) loop over the streaming getdents contract. Each call
// returns at most abi.DirentChunk entries; an empty chunk marks the end.
func ReadDir(p Proc, fd int) ([]abi.Dirent, abi.Errno) {
	var out []abi.Dirent
	for {
		ents, err := p.Getdents(fd)
		if err != abi.OK {
			return out, err
		}
		if len(ents) == 0 {
			return out, abi.OK
		}
		out = append(out, ents...)
	}
}

// Basename returns the final path element.
func Basename(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// Dirname returns the directory portion of a path.
func Dirname(p string) string {
	i := strings.LastIndexByte(p, '/')
	switch {
	case i < 0:
		return "."
	case i == 0:
		return "/"
	default:
		return p[:i]
	}
}

// StatBatchAmortizer is the optional Proc extension reporting whether
// StatBatch actually amortizes its round trips (the ring transport's
// one-doorbell batch). Probe loops consult it to choose between one
// batched probe of every candidate and a sequential early-exit walk —
// on a transport that pays one round trip per stat, probing past the
// first hit is pure waste.
type StatBatchAmortizer interface {
	StatBatchAmortized() bool
}

// LookPath resolves a command name against PATH entries, returning the
// first candidate that exists. Absolute or relative paths pass through.
// On a batch-amortizing transport every candidate is probed in one
// StatBatch — the whole PATH walk is a single doorbell the kernel
// answers with one notify; elsewhere the walk stops at the first hit,
// one round trip per directory as before.
func LookPath(p Proc, name string) (string, abi.Errno) {
	if strings.ContainsRune(name, '/') {
		return name, abi.OK
	}
	path := p.Getenv("PATH")
	if path == "" {
		path = "/usr/bin:/bin"
	}
	var cands []string
	for _, dir := range strings.Split(path, ":") {
		if dir == "" {
			continue
		}
		cands = append(cands, dir+"/"+name)
	}
	if len(cands) == 0 {
		return "", abi.ENOENT
	}
	if ba, ok := p.(StatBatchAmortizer); ok && ba.StatBatchAmortized() && len(cands) > 1 {
		_, errs := p.StatBatch(cands, false)
		for i, cand := range cands {
			if errs[i] == abi.OK {
				return cand, abi.OK
			}
		}
		return "", abi.ENOENT
	}
	for _, cand := range cands {
		if err := p.Access(cand, abi.X_OK); err == abi.OK {
			return cand, abi.OK
		}
	}
	return "", abi.ENOENT
}
