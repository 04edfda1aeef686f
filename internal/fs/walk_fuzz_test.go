package fs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/abi"
)

// walkTree is a generated tree: real directories, files, relative,
// absolute and chained symlinks, and one symlink loop.
type walkTree struct {
	cands   []string            // canonical spellings to respell
	subdirs map[string][]string // real directory -> its real subdirectories' names
}

// relTarget spells target relative to the real directory dir.
func relTarget(dir, target string) string {
	from, to := splitComps(dir), splitComps(target)
	k := 0
	for k < len(from) && k < len(to) && from[k] == to[k] {
		k++
	}
	var parts []string
	for range from[k:] {
		parts = append(parts, "..")
	}
	parts = append(parts, to[k:]...)
	if len(parts) == 0 {
		return "."
	}
	return strings.Join(parts, "/")
}

func splitComps(p string) []string {
	var out []string
	for _, c := range strings.Split(p, "/") {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// genWalkTree builds the tree for seed on f. The same seed builds the
// same tree, inode numbers included.
func genWalkTree(t testing.TB, f *FileSystem, seed uint8) walkTree {
	r := rand.New(rand.NewSource(int64(seed)))
	check := func(what string, err abi.Errno) {
		if err != abi.OK {
			t.Fatalf("%s: %v", what, err)
		}
	}
	wt := walkTree{subdirs: map[string][]string{}}
	dirs := []string{"/"}
	names := []string{"/"}
	for i := 0; i < 3+r.Intn(4); i++ {
		parent := dirs[r.Intn(len(dirs))]
		name := fmt.Sprintf("d%d", i)
		p := joinPath(parent, name)
		f.Mkdir(p, 0o755, func(e abi.Errno) { check("mkdir "+p, e) })
		dirs = append(dirs, p)
		names = append(names, p)
		wt.subdirs[parent] = append(wt.subdirs[parent], name)
	}
	for i := 0; i < 3; i++ {
		p := joinPath(dirs[r.Intn(len(dirs))], fmt.Sprintf("f%d", i))
		f.WriteFile(p, []byte(p), 0o644, func(e abi.Errno) { check("write "+p, e) })
		names = append(names, p)
	}
	// Each link targets an earlier name, so later links chain through
	// earlier ones; half the targets are relative.
	for i := 0; i < 4; i++ {
		dir := dirs[r.Intn(len(dirs))]
		target := names[1+r.Intn(len(names)-1)]
		if r.Intn(2) == 0 {
			target = relTarget(dir, target)
		}
		p := joinPath(dir, fmt.Sprintf("l%d", i))
		f.Symlink(target, p, func(e abi.Errno) { check("symlink "+p, e) })
		names = append(names, p)
	}
	f.Symlink("loopB", "/loopA", func(e abi.Errno) { check("symlink /loopA", e) })
	f.Symlink("/loopA", "/loopB", func(e abi.Errno) { check("symlink /loopB", e) })
	names = append(names, "/loopA")
	// Candidates: every name, and every name with one more component
	// below it, which walks through links to directories, through
	// files (ENOTDIR) and into missing names.
	children := []string{"d1", "f0", "l1", "missing"}
	for _, n := range names {
		wt.cands = append(wt.cands, n)
		for _, c := range children {
			wt.cands = append(wt.cands, joinPath(n, c))
		}
	}
	return wt
}

// respell rewrites the canonical path p using the bytes of spell: before
// each component it puts "/", "//", "/./" or "/x/../" (x a real
// subdirectory of where the walk stands, found through fsys), and after
// the last one nothing, "/.", "//" or "/./". It returns the respelling
// and the canonical spelling it must match ("p/" for the trailing
// forms, which all ask for a directory).
func respell(fsys *FileSystem, wt walkTree, p string, spell []byte) (string, string) {
	at := func(k int) byte {
		if k < len(spell) {
			return spell[k] % 4
		}
		return 0
	}
	comps := splitComps(p)
	var b strings.Builder
	prefix := "/"
	for k, c := range comps {
		switch at(k) {
		case 0:
			b.WriteString("/")
		case 1:
			b.WriteString("//")
		case 2:
			b.WriteString("/./")
		case 3:
			var dir string
			fsys.Resolve(prefix, func(rp string, st abi.Stat, err abi.Errno) {
				if err == abi.OK && st.IsDir() {
					dir = rp
				}
			})
			if subs := wt.subdirs[dir]; len(subs) > 0 {
				b.WriteString("/" + subs[int(spell[k])%len(subs)] + "/../")
			} else {
				b.WriteString("/")
			}
		}
		b.WriteString(c)
		prefix = joinPath(prefix, c)
	}
	canon := p
	if tail := at(len(comps)); tail != 0 {
		b.WriteString([]string{"", "/.", "//", "/./"}[tail])
		if canon != "/" {
			canon += "/"
		}
	}
	if b.Len() == 0 {
		b.WriteString("/")
	}
	return b.String(), canon
}

// constFS is a memfs-backed FileSystem with a fixed clock, so two built
// alike have equal Stat results.
func constFS() *FileSystem {
	tick := func() int64 { return 1 }
	return NewFileSystem(NewMemFS(tick), tick)
}

// FuzzWalkSpellings: on a generated tree with relative, absolute and
// chained symlinks and a symlink loop, every respelling of a path walks
// to the same (err, path, st) as its canonical spelling, following a
// trailing symlink or not, with warm caches and with no caches at all.
func FuzzWalkSpellings(f *testing.F) {
	f.Add(uint8(0), uint16(0), []byte{})
	f.Add(uint8(1), uint16(7), []byte{1, 2, 3, 1})
	f.Add(uint8(2), uint16(33), []byte{3, 3, 3, 3, 3})
	f.Add(uint8(3), uint16(90), []byte{2, 0, 3, 1, 2})
	f.Add(uint8(4), uint16(41), []byte{3, 7, 11, 2})
	f.Fuzz(func(t *testing.T, seed uint8, pick uint16, spell []byte) {
		warm := constFS()
		wt := genWalkTree(t, warm, seed)
		cold := constFS()
		genWalkTree(t, cold, seed)
		cold.SetFeatures(Features{NoCaches: true})

		p := wt.cands[int(pick)%len(wt.cands)]
		alt, canon := respell(warm, wt, p, spell)
		for _, o := range []walkOpts{{}, {follow: true}} {
			var want walkEnt
			warm.walk(canon, o, func(e walkEnt) { want = e })
			for _, c := range []struct {
				name string
				fsys *FileSystem
			}{{"warm", warm}, {"warm again", warm}, {"uncached", cold}} {
				var got walkEnt
				c.fsys.walk(alt, o, func(e walkEnt) { got = e })
				if got.err != want.err || got.path != want.path || got.st != want.st {
					t.Fatalf("%s walk(%q, follow=%v) = (%v, %q, %+v), walk(%q) = (%v, %q, %+v)",
						c.name, alt, o.follow, got.err, got.path, got.st, canon, want.err, want.path, want.st)
				}
			}
		}
	})
}
