package abi

import (
	"testing"
	"testing/quick"
)

func TestExitStatusEncoding(t *testing.T) {
	st := ExitStatus(42)
	if !WIFEXITED(st) || WEXITSTATUS(st) != 42 || WIFSIGNALED(st) {
		t.Fatalf("exit status roundtrip: %#x", st)
	}
	st = SignalStatus(SIGKILL)
	if !WIFSIGNALED(st) || WTERMSIG(st) != SIGKILL || WIFEXITED(st) {
		t.Fatalf("signal status roundtrip: %#x", st)
	}
}

func TestExitStatusProperty(t *testing.T) {
	f := func(code uint8) bool {
		st := ExitStatus(int(code))
		return WIFEXITED(st) && WEXITSTATUS(st) == int(code)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatPackRoundTrip(t *testing.T) {
	st := Stat{Mode: S_IFREG | 0o644, Size: 123456789, Mtime: 42, Atime: 7, Ctime: 9, Nlink: 3, Ino: 991}
	var buf [StatSize]byte
	PackStat(buf[:], st)
	got := UnpackStat(buf[:])
	if got != st {
		t.Fatalf("roundtrip: %+v != %+v", got, st)
	}
}

func TestStatPackProperty(t *testing.T) {
	f := func(mode uint32, size int64, mtime int64, ino uint64) bool {
		if size < 0 {
			size = -size
		}
		st := Stat{Mode: mode, Size: size, Mtime: mtime, Nlink: 1, Ino: ino}
		var buf [StatSize]byte
		PackStat(buf[:], st)
		return UnpackStat(buf[:]) == st
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDirentPackRoundTrip(t *testing.T) {
	ents := []Dirent{
		{Name: "a", Type: DT_REG, Ino: 1},
		{Name: "some-longer-name.txt", Type: DT_DIR, Ino: 2},
		{Name: "x", Type: DT_LNK, Ino: 3},
	}
	buf := make([]byte, 4096)
	n, consumed := PackDirents(buf, ents)
	if consumed != 3 {
		t.Fatalf("consumed %d", consumed)
	}
	got := UnpackDirents(buf[:n])
	if len(got) != 3 {
		t.Fatalf("decoded %d", len(got))
	}
	for i := range ents {
		if got[i] != ents[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], ents[i])
		}
	}
}

func TestDirentPackTruncation(t *testing.T) {
	ents := []Dirent{{Name: "aaaa", Type: DT_REG, Ino: 1}, {Name: "bbbb", Type: DT_REG, Ino: 2}}
	buf := make([]byte, 20) // room for only one record
	n, consumed := PackDirents(buf, ents)
	if consumed != 1 || n == 0 {
		t.Fatalf("n=%d consumed=%d", n, consumed)
	}
	got := UnpackDirents(buf[:n])
	if len(got) != 1 || got[0].Name != "aaaa" {
		t.Fatalf("got %+v", got)
	}
}

// replyRoundTrip clones a successful reply to trap carrying res.
func replyRoundTrip(trap int, res Result) Result {
	c, _ := (&ReplyFrame{ID: 1, Trap: trap, Res: res}).CloneValue()
	return c.(*ReplyFrame).Res
}

func TestStatMapRoundTrip(t *testing.T) {
	st := Stat{Mode: S_IFDIR | 0o755, Size: 4096, Mtime: 11, Atime: 22, Ctime: 33, Nlink: 2, Ino: 5}
	got := replyRoundTrip(SYS_stat, Result{Stat: st}).Stat
	if got != st {
		t.Fatalf("stat object roundtrip: %+v != %+v", got, st)
	}
	if !st.IsDir() || st.IsRegular() || st.IsSymlink() {
		t.Fatal("mode predicates wrong")
	}
}

func TestDirentMapRoundTrip(t *testing.T) {
	d := Dirent{Name: "f.txt", Type: DT_REG, Ino: 77}
	if got := replyRoundTrip(SYS_getdents, Result{Ret: 1, Ents: []Dirent{d}}).Ents; len(got) != 1 || got[0] != d {
		t.Fatalf("dirent object roundtrip: %+v", got)
	}
}

func TestErrnoStrings(t *testing.T) {
	if ENOENT.String() != "ENOENT" || ENOENT.Error() != "ENOENT" {
		t.Fatal("errno naming")
	}
	if Errno(9999).String() == "" {
		t.Fatal("unknown errno must render")
	}
}

func TestSyscallNames(t *testing.T) {
	if SyscallName(SYS_open) != "open" || SyscallName(SYS_getdents) != "getdents" ||
		SyscallName(SYS_poll) != "poll" || SyscallName(SYS_setfl) != "setfl" {
		t.Fatal("syscall names")
	}
	if SyscallName(-1) == "" || SyscallName(10_000) == "" {
		t.Fatal("out-of-range syscall numbers must render")
	}
}

func TestDirentTypeFromMode(t *testing.T) {
	cases := map[uint32]int{
		S_IFDIR | 0o755: DT_DIR, S_IFREG: DT_REG, S_IFLNK: DT_LNK,
		S_IFIFO: DT_FIFO, S_IFSOCK: DT_SOCK, S_IFCHR: DT_CHR, 0: DT_UNKNOWN,
	}
	for mode, want := range cases {
		if got := DirentTypeFromMode(mode); got != want {
			t.Errorf("mode %#x -> %d, want %d", mode, got, want)
		}
	}
}

func TestSignalNames(t *testing.T) {
	if SignalName(SIGKILL) != "SIGKILL" || SignalName(99) == "" {
		t.Fatal("signal naming")
	}
}
