package core

import (
	"slices"
	"testing"
)

// TestExitClosesFdsAscending: a task exiting with pipe write ends at
// scattered descriptors closes them in ascending fd order, as each
// reader's state hook observes.
func TestExitClosesFdsAscending(t *testing.T) {
	w := newRingWorld(t)
	fds := []int{9, 2, 14, 0, 5, 11, 3, 7, 12, 1, 8, 4, 13, 6, 10, 15}
	var order []int
	for _, fd := range fds {
		fd := fd
		r, wr := NewPipePair()
		r.(*pipeEnd).p.onState = func() { order = append(order, fd) }
		w.task.setFd(fd, NewDesc(wr, 0, "w"))
	}
	w.k.finishTask(w.task, 0)
	want := slices.Clone(fds)
	slices.Sort(want)
	if !slices.Equal(order, want) {
		t.Fatalf("close order %v, want %v", order, want)
	}
}
