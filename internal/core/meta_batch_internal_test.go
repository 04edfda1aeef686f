package core

import (
	"testing"

	"repro/internal/abi"
)

// TestMixedMetaRunSingleNotify: a doorbell carrying a PATH-probe-shaped
// run — stat, plain read-only open, readlink, access, and a missing name
// — completes with ONE notify, and every frame completes exactly as it
// would have on its own: the open installs a working descriptor, the
// readlink fills its buffer, the missing name fails.
func TestMixedMetaRunSingleNotify(t *testing.T) {
	w := newRingWorld(t)
	w.fsys.WriteFile("/bin-probe", []byte("#!interp"), 0o755, func(abi.Errno) {})
	var serr abi.Errno = -1
	w.fsys.Symlink("/bin-probe", "/ln", func(err abi.Errno) { serr = err })
	if serr != abi.OK {
		t.Fatalf("symlink: %v", serr)
	}

	heap := w.task.heap.Bytes()
	ptr := int64(64)
	stage := func(s string) (int64, int64) {
		copy(heap[ptr:], s)
		pp, pn := ptr, int64(len(s))
		ptr += (pn + 7) &^ 7
		return pp, pn
	}
	alloc := func(n int64) int64 {
		p := ptr
		ptr += (n + 7) &^ 7
		return p
	}

	r := w.task.ring.req
	pa, na := stage("/bin-probe")
	statPtr := alloc(abi.StatSize)
	r.PushCall(0, abi.SYS_stat, []int64{pa, na, statPtr})
	pb, nb := stage("/bin-probe")
	r.PushCall(1, abi.SYS_open, []int64{pb, nb, abi.O_RDONLY, 0})
	pc, nc := stage("/ln")
	lnBuf := alloc(256)
	r.PushCall(2, abi.SYS_readlink, []int64{pc, nc, lnBuf, 256})
	pd, nd := stage("/bin-probe")
	r.PushCall(3, abi.SYS_access, []int64{pd, nd, abi.X_OK})
	pe, ne := stage("/missing")
	r.PushCall(4, abi.SYS_stat, []int64{pe, ne, alloc(abi.StatSize)})

	notifies := w.k.RingNotifies.Load()
	w.drain(t)
	if got := w.k.RingNotifies.Load() - notifies; got != 1 {
		t.Fatalf("mixed meta run produced %d notifies, want 1", got)
	}

	rets := map[uint32]int64{}
	errs := map[uint32]abi.Errno{}
	for {
		seq, ret, errno, ok := w.task.ring.rep.PopReply()
		if !ok {
			break
		}
		rets[seq], errs[seq] = ret, errno
	}
	if len(rets) != 5 {
		t.Fatalf("got %d replies, want 5", len(rets))
	}
	if errs[0] != abi.OK {
		t.Fatalf("stat: %v", errs[0])
	}
	if st := abi.UnpackStat(heap[statPtr : statPtr+abi.StatSize]); st.Size != 8 {
		t.Fatalf("stat size %d, want 8", st.Size)
	}
	if errs[1] != abi.OK || rets[1] < 0 {
		t.Fatalf("open: fd=%d err=%v", rets[1], errs[1])
	}
	fd := int(rets[1])
	if got := w.task.FdPath(fd); got != "/bin-probe" {
		t.Fatalf("opened fd %d names %q", fd, got)
	}
	// The probe run's open descriptor must actually read.
	d, derr := w.task.lookFd(fd)
	if derr != abi.OK {
		t.Fatalf("lookFd: %v", derr)
	}
	var body []byte
	done := false
	w.sim.Post(w.sys.Main.Sched(), w.sim.Now(), func() {
		d.file.Read(d, 64, func(b []byte, err abi.Errno) { body, done = b, true })
	})
	w.sim.RunUntil(func() bool { return done })
	if string(body) != "#!interp" {
		t.Fatalf("probe-run open read %q", body)
	}
	if errs[2] != abi.OK || string(heap[lnBuf:lnBuf+rets[2]]) != "/bin-probe" {
		t.Fatalf("readlink: err=%v target=%q", errs[2], heap[lnBuf:lnBuf+rets[2]])
	}
	if errs[3] != abi.OK {
		t.Fatalf("access: %v", errs[3])
	}
	if errs[4] != abi.ENOENT {
		t.Fatalf("missing stat: %v, want ENOENT", errs[4])
	}
}

// TestMetaRunSkipsMutatingOpens: a creating open inside a probe run
// takes effect in frame order — the stat before it misses the new name,
// the stat after it finds an empty file.
func TestMetaRunSkipsMutatingOpens(t *testing.T) {
	w := newRingWorld(t)
	heap := w.task.heap.Bytes()
	copy(heap[64:], "/new")
	before, after := int64(128), int64(256)
	r := w.task.ring.req
	r.PushCall(0, abi.SYS_stat, []int64{64, 4, before})
	r.PushCall(1, abi.SYS_open, []int64{64, 4, abi.O_WRONLY | abi.O_CREAT, 0o644})
	r.PushCall(2, abi.SYS_stat, []int64{64, 4, after})
	w.drain(t)
	errs := map[uint32]abi.Errno{}
	for {
		seq, _, errno, ok := w.task.ring.rep.PopReply()
		if !ok {
			break
		}
		errs[seq] = errno
	}
	if len(errs) != 3 || errs[0] != abi.ENOENT || errs[1] != abi.OK || errs[2] != abi.OK {
		t.Fatalf("errnos %v, want ENOENT, OK, OK", errs)
	}
	if st := abi.UnpackStat(heap[after : after+abi.StatSize]); !st.IsRegular() || st.Size != 0 {
		t.Fatalf("stat after the creating open: %+v", st)
	}
}
