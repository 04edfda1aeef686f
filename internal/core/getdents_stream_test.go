package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/abi"
	_ "repro/internal/coreutils" // registers ls for TestLsOverBigDirectory
	"repro/internal/posix"
	"repro/internal/rt"
)

// t-bigdir creates a directory larger than one getdents chunk and
// proves the streaming contract: every call returns at most
// abi.DirentChunk entries, the chunks concatenate to the full listing
// with no duplicates, and rewinddir (seek 0) restarts the stream.
func init() {
	posix.Register(&posix.Program{Name: "t-bigdir", Main: func(p posix.Proc) int {
		const n = 300 // > 2 chunks of 128
		if err := p.Mkdir("/big", 0o755); err != abi.OK {
			return 1
		}
		for i := 0; i < n; i++ {
			fd, err := p.Open(fmt.Sprintf("/big/f%04d", i), abi.O_WRONLY|abi.O_CREAT, 0o644)
			if err != abi.OK {
				return 2
			}
			p.Close(fd)
		}
		fd, err := p.Open("/big", abi.O_RDONLY|abi.O_DIRECTORY, 0)
		if err != abi.OK {
			return 3
		}
		chunks := 0
		seen := map[string]bool{}
		for {
			ents, err := p.Getdents(fd)
			if err != abi.OK {
				return 4
			}
			if len(ents) == 0 {
				break
			}
			if len(ents) > abi.DirentChunk {
				return 5 // chunk bound violated
			}
			chunks++
			for _, e := range ents {
				if seen[e.Name] {
					return 6 // duplicate across chunks
				}
				seen[e.Name] = true
			}
		}
		// Rewind and drain again via the helper.
		if _, err := p.Seek(fd, 0, abi.SEEK_SET); err != abi.OK {
			return 7
		}
		again, rerr := posix.ReadDir(p, fd)
		p.Close(fd)
		if rerr != abi.OK {
			return 8
		}
		posix.Fprintf(p, abi.Stdout, "entries=%d chunks=%d rewind=%d\n", len(seen), chunks, len(again))
		return 0
	}})
}

// TestGetdentsStreamsLargeDirectories runs the streaming proof on all
// three transports: identical results, chunked delivery.
func TestGetdentsStreamsLargeDirectories(t *testing.T) {
	want := "entries=300 chunks=3 rewind=300\n"
	for _, v := range variants(transports) {
		w := v.boot(t)
		w.install(t, "/usr/bin/t-bigdir", "t-bigdir", v.tr.kind())
		code, out, errOut := w.run(t, "/usr/bin/t-bigdir")
		if code != 0 {
			t.Fatalf("%s: exited %d (stderr %q)", v, code, errOut)
		}
		if out != want {
			t.Errorf("%s: %q, want %q", v, out, want)
		}
	}
}

// TestLsOverBigDirectory: the `ls` utility (ReadDir + batched lstat
// storm) lists a multi-chunk directory completely and in order.
func TestLsOverBigDirectory(t *testing.T) {
	w := boot(t)
	w.install(t, "/usr/bin/ls", "ls", rt.EmSyncKind)
	w.mkdirAll(t, "/lots")
	for i := 0; i < 200; i++ {
		w.fs.WriteFile(fmt.Sprintf("/lots/e%03d", i), []byte("x"), 0o644, func(abi.Errno) {})
	}
	code, out, errOut := w.run(t, "ls -l /lots")
	if code != 0 {
		t.Fatalf("ls exited %d (stderr %q)", code, errOut)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 200 {
		t.Fatalf("ls printed %d lines, want 200", len(lines))
	}
	if !strings.HasSuffix(lines[0], "e000") || !strings.HasSuffix(lines[199], "e199") {
		t.Fatalf("ordering broken: first=%q last=%q", lines[0], lines[199])
	}
	// The -l stat storm must have travelled the fs batch entry point
	// (ring doorbell -> DispatchBatch -> FS.StatBatch).
	if w.k.FSBatchedCalls.Load() < 200 {
		t.Fatalf("FSBatchedCalls = %d, want >= 200 (ls -l storm batched)", w.k.FSBatchedCalls.Load())
	}
}
