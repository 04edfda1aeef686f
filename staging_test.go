package browsix_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	browsix "repro"
	"repro/internal/abi"
	"repro/internal/fs"
	"repro/internal/posix"
	"repro/internal/rt"
)

// inodes maps every entry of dir to its Stat inode number.
func inodes(t *testing.T, in *browsix.Instance, dir string) map[string]uint64 {
	t.Helper()
	ents, err := in.FS().ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for _, e := range ents {
		fi, err := in.FS().Stat(dir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi.Sys().(abi.Stat).Ino
	}
	return out
}

// TestStagedInodesStable: staging runs in sorted path order, so every
// boot numbers the staged executables identically.
func TestStagedInodesStable(t *testing.T) {
	a, b := browsix.Boot(browsix.Config{}), browsix.Boot(browsix.Config{})
	stageWasmFleet(a)
	stageWasmFleet(b)
	for _, dir := range []string{"bin", "usr/bin"} {
		ia, ib := inodes(t, a, dir), inodes(t, b, dir)
		if len(ia) == 0 || len(ia) != len(ib) {
			t.Fatalf("/%s: %d vs %d entries", dir, len(ia), len(ib))
		}
		for name, ino := range ia {
			if ib[name] != ino {
				t.Errorf("/%s/%s: inode %d on one boot, %d on the other", dir, name, ino, ib[name])
			}
		}
	}
}

// overwriteInPlace writes data at offset 0 of p through a read-write
// descriptor (no truncation) and closes it, flushing the write.
func overwriteInPlace(in *browsix.Instance, p string, data []byte) browsix.Errno {
	var out browsix.Errno = -1
	in.Main(func() {
		in.VFS.Open(p, abi.O_RDWR, 0, func(h fs.FileHandle, err abi.Errno) {
			if err != abi.OK {
				out = err
				return
			}
			h.Pwrite(0, data, func(_ int, err abi.Errno) {
				h.Close(func(cerr abi.Errno) {
					if err == abi.OK {
						err = cerr
					}
					out = err
				})
			})
		})
	})
	in.RunUntil(func() bool { return out != -1 })
	return out
}

// TestStagedExecutableCopyOnWrite: every Instance aliases one cached
// artifact per program, so an in-place write to a staged executable must
// land in that Instance's private copy only — sessions running beside it
// still run cat, and the cached artifact stays byte-identical.
func TestStagedExecutableCopyOnWrite(t *testing.T) {
	const jobs = 8
	garbage := []byte("XXXXXXXX")
	ref := bootBase(t)
	motd, err := ref.FS().ReadFile("etc/motd")
	if err != nil {
		t.Fatal(err)
	}
	js := make([]browsix.Job, jobs)
	for i := range js {
		js[i] = browsix.Job{Setup: browsix.InstallBase}
		if i%2 == 1 {
			js[i].Spec = browsix.Spec{Argv: []string{"/bin/sh", "-c", "cat /etc/motd"}}
			continue
		}
		js[i].Run = func(in *browsix.Instance) browsix.JobOutput {
			if err := overwriteInPlace(in, "/usr/bin/cat", garbage); err != abi.OK {
				return browsix.JobOutput{Code: 1, Stderr: []byte(err.Error())}
			}
			b, err := in.FS().ReadFile("usr/bin/cat")
			if err != nil || len(b) != rt.ArtifactSize(rt.NodeKind) {
				return browsix.JobOutput{Code: 1, Stderr: []byte("reading back /usr/bin/cat failed")}
			}
			return browsix.JobOutput{Stdout: b[:len(garbage)]}
		}
	}
	res, _ := (&browsix.Fleet{Workers: 2}).Run(js)
	for i, r := range res {
		want := motd
		if i%2 == 0 {
			want = garbage
		}
		if r.Err != nil || r.Code != 0 || !bytes.Equal(r.Stdout, want) {
			t.Errorf("job %d: err %v code %d stdout %q stderr %q, want stdout %q", i, r.Err, r.Code, r.Stdout, r.Stderr, want)
		}
	}
	fresh := posix.Executable("cat", string(rt.NodeKind), rt.ArtifactSize(rt.NodeKind))
	if !bytes.Equal(rt.Artifact("cat", rt.NodeKind), fresh) {
		t.Fatal("an in-place write reached the cached cat artifact")
	}
}

// TestStagingSharesArtifacts is the staging allocation guard: staging
// moves no payload bytes, so InstallBase plus InstallWasmCoreutils on a
// fresh Instance (about 60 MB of executables) allocates under 1 MiB once
// the artifacts are built.
func TestStagingSharesArtifacts(t *testing.T) {
	stageWasmFleet(browsix.Boot(browsix.Config{})) // warm-up: builds the artifacts
	in := browsix.Boot(browsix.Config{})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stageWasmFleet(in)
	runtime.ReadMemStats(&m1)
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("staging allocated %d bytes", got)
	if got >= 1<<20 {
		t.Fatalf("staging allocated %d bytes, want < 1 MiB", got)
	}
}

// TestSpawnSharesExecutable is the spawn allocation guard: the kernel
// reads an executable by reference (FileSystem.ReadFileShared) and the
// Blob store keeps it uncopied, so a spawn allocates far less than the
// artifact it starts. An in-place write to the executable afterwards
// still lands in the Instance's private copy only: the cached artifact
// stays byte-identical, and the next spawn sees the written bytes.
func TestSpawnSharesExecutable(t *testing.T) {
	const spawns = 20
	in := bootBase(t)
	spawnTrue := func() {
		t.Helper()
		p, err := in.Start(browsix.Spec{Argv: []string{"/usr/bin/true"}})
		if err != nil {
			t.Fatal(err)
		}
		if code, err := p.Wait(); err != nil || code != 0 {
			t.Fatalf("true: code %d, err %v", code, err)
		}
	}
	spawnTrue() // warm-up
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < spawns; i++ {
		spawnTrue()
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / spawns
	t.Logf("one spawn of true allocated %d bytes", per)
	if limit := uint64(rt.ArtifactSize(rt.NodeKind) / 4); per >= limit {
		t.Fatalf("one spawn of true allocated %d bytes, want < %d (a quarter of its artifact)", per, limit)
	}

	runOK(t, in, "/usr/bin/cat /etc/motd") // cat's bytes are now handed out by reference
	if err := overwriteInPlace(in, "/usr/bin/cat", []byte("XXXXXXXX")); err != abi.OK {
		t.Fatal(err)
	}
	fresh := posix.Executable("cat", string(rt.NodeKind), rt.ArtifactSize(rt.NodeKind))
	if !bytes.Equal(rt.Artifact("cat", rt.NodeKind), fresh) {
		t.Fatal("an in-place write reached the cached cat artifact")
	}
	if _, err := in.Start(browsix.Spec{Argv: []string{"/usr/bin/cat"}}); !errors.Is(err, abi.ENOEXEC) {
		t.Fatalf("spawning the overwritten cat: %v, want ENOEXEC", err)
	}
}
