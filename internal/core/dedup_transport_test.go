package core_test

import (
	"bytes"
	"testing"

	"repro/internal/fs"
	"repro/internal/rt"
)

// Read-path dedup: two files with identical bytes occupy ONE set of
// pages, and the ring transport serves warm reads of both names out of
// those shared pages.

func TestDedupSharedSlotsServeGrants(t *testing.T) {
	w := boot(t)
	content := zcPattern(9, 256<<10+100)
	pages := int64((len(content) + fs.PageSize - 1) / fs.PageSize)
	// rep.bin is four IDENTICAL pages: one page, read repeatedly through
	// the same descriptor.
	rep := bytes.Repeat(zcPattern(5, fs.PageSize), 4)
	mountRO(t, w, map[string][]byte{
		"/one.bin": content,
		"/two.bin": content,
		"/rep.bin": rep,
	})
	w.install(t, "/usr/bin/t-zcread", "t-zcread", rt.EmSyncKind)

	// The cold fault of the first copy fills the shared tier (read-only
	// backend); the second copy must then be pure index hits.
	code, out1, _ := w.run(t, "/usr/bin/t-zcread /ro/one.bin")
	if code != 0 {
		t.Fatalf("read one.bin exited %d", code)
	}
	cs := w.fs.CacheStats()
	if cs.DedupStores < pages {
		t.Fatalf("DedupStores = %d after cold read, want >= %d", cs.DedupStores, pages)
	}
	hitsBefore := cs.DedupHits

	code, out2, _ := w.run(t, "/usr/bin/t-zcread /ro/two.bin")
	if code != 0 {
		t.Fatalf("read two.bin exited %d", code)
	}
	if out1 != out2 {
		t.Fatalf("identical files hashed differently: %q vs %q", out1, out2)
	}
	cs = w.fs.CacheStats()
	if d := cs.DedupHits - hitsBefore; d != pages {
		t.Fatalf("second file scored %d dedup hits, want %d (every page shared)", d, pages)
	}
	if cs.DedupPages < pages || cs.SharedBytes < int64(len(content)) {
		t.Fatalf("shared footprint: pages=%d bytes=%d, want >= %d/%d",
			cs.DedupPages, cs.SharedBytes, pages, len(content))
	}

	// The repeated-page file collapses to ONE slot with one reference
	// per page; cold and warm reads must both hold together.
	code, rep1, _ := w.run(t, "/usr/bin/t-zcread /ro/rep.bin")
	if code != 0 {
		t.Fatalf("cold read rep.bin exited %d", code)
	}

	// Warm reads of every name are served from the shared slots and
	// agree with the cold reads.
	for _, path := range []string{"/ro/one.bin", "/ro/two.bin", "/ro/rep.bin"} {
		code, out, _ := w.run(t, "/usr/bin/t-zcread "+path)
		if code != 0 {
			t.Fatalf("warm read %s: code=%d out=%q", path, code, out)
		}
		want := out1
		if path == "/ro/rep.bin" {
			want = rep1
		}
		if out != want {
			t.Fatalf("warm read %s diverged: %q, want %q", path, out, want)
		}
	}
}

// TestDedupFlushReturnsSharedSlots: dropping every cache that references
// a shared page while a transport COULD still race a read is covered by
// the fs stress suite; here we pin the cheap end-to-end variant — a
// full cache flush between runs empties the cache (no index entry
// outlives its last referencing cache).
func TestDedupFlushReturnsSharedSlots(t *testing.T) {
	w := boot(t)
	content := zcPattern(4, 64<<10)
	mountRO(t, w, map[string][]byte{
		"/a.bin": content,
		"/b.bin": content,
	})
	w.install(t, "/usr/bin/t-zcread", "t-zcread", rt.EmSyncKind)
	for _, p := range []string{"/ro/a.bin", "/ro/b.bin"} {
		if code, _, _ := w.run(t, "/usr/bin/t-zcread "+p); code != 0 {
			t.Fatalf("read %s failed", p)
		}
	}
	if cs := w.fs.CacheStats(); cs.DedupPages == 0 {
		t.Fatal("no shared pages after identical reads")
	}
	w.fs.FlushCaches()
	cs := w.fs.CacheStats()
	if cs.CachedPages != 0 || cs.DedupPages != 0 || cs.SharedBytes != 0 {
		t.Fatalf("after flush: cached=%d shared=%d (%d bytes), want 0/0/0", cs.CachedPages, cs.DedupPages, cs.SharedBytes)
	}
}
