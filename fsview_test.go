package browsix_test

import (
	"archive/zip"
	"bytes"
	"errors"
	"io/fs"
	"testing"
	"testing/fstest"

	browsix "repro"
	ifs "repro/internal/fs"
	"repro/internal/netsim"
)

// The acceptance gate for the io/fs facade: testing/fstest.TestFS must
// pass over every backend class — memfs, zipfs, httpfs (lazy network
// fetches driven by the facade), and overlay.

// facadeTree is the tree staged on every backend.
var facadeTree = map[string]string{
	"hello.txt":        "hello, facade\n",
	"sub/nested.txt":   "nested contents\n",
	"sub/deep/leaf.md": "# leaf\n",
	"empty.txt":        "",
}

func facadeExpected() []string {
	return []string{"hello.txt", "sub/nested.txt", "sub/deep/leaf.md", "empty.txt"}
}

func TestFSFacadeMemFS(t *testing.T) {
	in := browsix.Boot(browsix.Config{})
	v := in.FS()
	for p, body := range facadeTree {
		if err := v.MkdirAll(dirOf(p), 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", p, err)
		}
		if err := v.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
	}
	if err := fstest.TestFS(v, facadeExpected()...); err != nil {
		t.Fatal(err)
	}
}

func TestFSFacadeZipFS(t *testing.T) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for p, body := range facadeTree {
		w, err := zw.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		w.Write([]byte(body))
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	zfs, err := ifs.NewZipFS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	in := browsix.Boot(browsix.Config{})
	if err := in.FS().MkdirAll("mnt", 0o755); err != nil {
		t.Fatal(err)
	}
	in.VFS.Mount("/mnt/zip", zfs)
	sub, err := in.FS().Sub("mnt/zip")
	if err != nil {
		t.Fatal(err)
	}
	if err := fstest.TestFS(sub.(*browsix.FSView), facadeExpected()...); err != nil {
		t.Fatal(err)
	}
}

// httpBackedInstance mounts facadeTree as an HTTP-backed file system at
// /mnt/http, served by a simulated remote host: every cold read through
// the facade is a lazy network fetch the drive loop must complete.
func httpBackedInstance(t *testing.T) (*browsix.Instance, fs.FS) {
	t.Helper()
	in := browsix.Boot(browsix.Config{})
	files := map[string][]byte{}
	sizes := map[string]int64{}
	for p, body := range facadeTree {
		files["/"+p] = []byte(body)
		sizes["/"+p] = int64(len(body))
	}
	in.Net.AddHost(netsim.FileHost("files.example.com", 5_000_000, 10, files))
	clock := func() int64 { return in.Sim.Now() }
	httpfs, err := ifs.NewHTTPFS(ifs.BuildIndex(sizes),
		&netsim.FSFetcher{Net: in.Net, HostNm: "files.example.com"}, clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.FS().MkdirAll("mnt", 0o755); err != nil {
		t.Fatal(err)
	}
	in.VFS.Mount("/mnt/http", httpfs)
	sub, err := in.FS().Sub("mnt/http")
	if err != nil {
		t.Fatal(err)
	}
	return in, sub
}

func TestFSFacadeHTTPFS(t *testing.T) {
	_, sub := httpBackedInstance(t)
	if err := fstest.TestFS(sub, facadeExpected()...); err != nil {
		t.Fatal(err)
	}
}

func TestFSFacadeOverlay(t *testing.T) {
	in := browsix.Boot(browsix.Config{})
	clock := func() int64 { return in.Sim.Now() }

	// Lower: a read-only zip image of the shared tree.
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for p, body := range facadeTree {
		w, _ := zw.Create(p)
		w.Write([]byte(body))
	}
	zw.Close()
	zfs, err := ifs.NewZipFS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	overlay := ifs.NewOverlayFS(ifs.NewMemFS(clock), zfs)
	if err := in.FS().MkdirAll("mnt", 0o755); err != nil {
		t.Fatal(err)
	}
	in.VFS.Mount("/mnt/ov", overlay)

	sub, err := in.FS().Sub("mnt/ov")
	if err != nil {
		t.Fatal(err)
	}
	v := sub.(*browsix.FSView)
	// Write through the facade into the upper layer, so the merged view
	// under test carries both layers.
	if err := v.WriteFile("upper.txt", []byte("upper layer\n"), 0o644); err != nil {
		t.Fatalf("overlay write: %v", err)
	}
	expected := append(facadeExpected(), "upper.txt")
	if err := fstest.TestFS(v, expected...); err != nil {
		t.Fatal(err)
	}
}

// TestFSFacadeWriteExtensions exercises the write-side surface end to
// end, including that the guest sees facade writes and vice versa.
func TestFSFacadeWriteExtensions(t *testing.T) {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	v := in.FS()

	if err := v.MkdirAll("proj/a/b", 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if err := v.WriteFile("proj/a/b/f.txt", []byte("one\n"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// The guest sees facade writes.
	res := runCmd(t, in, "cat /proj/a/b/f.txt")
	if res.Code != 0 || string(res.Stdout) != "one\n" {
		t.Fatalf("guest read: %d %q", res.Code, res.Stdout)
	}
	// Rename + ReadFile.
	if err := v.Rename("proj/a/b/f.txt", "proj/a/b/g.txt"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	data, err := v.ReadFile("proj/a/b/g.txt")
	if err != nil || string(data) != "one\n" {
		t.Fatalf("ReadFile after rename: %q %v", data, err)
	}
	if _, err := v.ReadFile("proj/a/b/f.txt"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("old name still readable: %v", err)
	}
	// Symlink with a relative target, resolved by the guest and Stat.
	if err := v.Symlink("g.txt", "proj/a/b/link"); err != nil {
		t.Fatalf("Symlink: %v", err)
	}
	st, err := v.Stat("proj/a/b/link")
	if err != nil || st.Size() != 4 {
		t.Fatalf("stat through symlink: %+v %v", st, err)
	}
	// Glob over the (cached) listings.
	got, err := v.Glob("proj/a/b/*.txt")
	if err != nil || len(got) != 1 || got[0] != "proj/a/b/g.txt" {
		t.Fatalf("Glob: %v %v", got, err)
	}
	// Remove file and then the emptied directories.
	for _, p := range []string{"proj/a/b/link", "proj/a/b/g.txt", "proj/a/b", "proj/a"} {
		if err := v.Remove(p); err != nil {
			t.Fatalf("Remove %s: %v", p, err)
		}
	}
	if _, err := v.Stat("proj/a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("proj/a survived removal: %v", err)
	}
	// Invalid names are rejected with *fs.PathError.
	var perr *fs.PathError
	if err := v.WriteFile("/absolute", nil, 0o644); !errors.As(err, &perr) {
		t.Fatalf("absolute name accepted: %v", err)
	}
}

// TestFacadeGlobUsesReaddirCache: fs.Glob on the facade drives the VFS
// dentry-layer listing cache instead of re-hitting backends.
func TestFacadeGlobUsesReaddirCache(t *testing.T) {
	in, sub := httpBackedInstance(t)
	v := sub.(*browsix.FSView)
	if _, err := v.Glob("sub/*.txt"); err != nil {
		t.Fatal(err)
	}
	base := in.VFS.CacheStats()
	for i := 0; i < 4; i++ {
		if _, err := v.Glob("sub/*.txt"); err != nil {
			t.Fatal(err)
		}
	}
	s := in.VFS.CacheStats()
	if s.ReaddirHits <= base.ReaddirHits {
		t.Fatalf("glob never hit the readdir cache: %+v -> %+v", base, s)
	}
	if s.ReaddirMisses != base.ReaddirMisses {
		t.Fatalf("warm globs re-listed backends: %+v -> %+v", base, s)
	}
}

// TestFSReadFileOwned: ReadFile's result belongs to its caller, so
// scribbling over (and appending to) it leaves a second ReadFile of
// the same file unchanged, cold, warm and cold again after the caches
// are flushed, on memfs, overlay (a file in each layer), zip and http
// mounts.
func TestFSReadFileOwned(t *testing.T) {
	in, _ := httpBackedInstance(t)
	clock := func() int64 { return in.Sim.Now() }
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for p, body := range facadeTree {
		w, _ := zw.Create(p)
		w.Write([]byte(body))
	}
	zw.Close()
	zfs, err := ifs.NewZipFS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	lower, err := ifs.NewZipFS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	in.VFS.Mount("/mnt/zip", zfs)
	in.VFS.Mount("/mnt/ov", ifs.NewOverlayFS(ifs.NewMemFS(clock), lower))
	v := in.FS()
	files := map[string]string{
		"mem.txt":                "memfs contents\n",
		"mnt/ov/upper.txt":       "overlay upper contents\n",
		"mnt/ov/hello.txt":       facadeTree["hello.txt"],
		"mnt/zip/sub/nested.txt": facadeTree["sub/nested.txt"],
		"mnt/http/hello.txt":     facadeTree["hello.txt"],
	}
	for _, p := range []string{"mem.txt", "mnt/ov/upper.txt"} {
		if err := v.WriteFile(p, []byte(files[p]), 0o644); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
	}
	for p, want := range files {
		for _, pass := range []string{"cold", "warm", "warm again", "cold again"} {
			if pass == "cold again" {
				// The backends' own bytes, not the page cache's copies.
				in.VFS.FlushCaches()
			}
			got, err := v.ReadFile(p)
			if err != nil || string(got) != want {
				t.Fatalf("%s %s: ReadFile %q %v, want %q", p, pass, got, err, want)
			}
			for i := range got {
				got[i] = '#'
			}
			_ = append(got, "XXXXXXXX"...)
		}
	}
}

func dirOf(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "."
}
