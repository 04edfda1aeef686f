package core

import (
	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/snapshot"
)

// taskState tracks a process through its lifecycle. Browsix had to
// implement the zombie state so wait4 could reap children that exited
// before being waited on (§3.3).
type taskState int

const (
	taskRunning taskState = iota
	taskZombie
)

// Task is the kernel's per-process structure (§3.3): "each BROWSIX process
// has an associated task structure that lives in the kernel that contains
// its process ID, parent's process ID, Web Worker object, current working
// directory, and map of open file descriptors."
type Task struct {
	k *Kernel

	Pid       int
	ParentPid int
	worker    *browser.Worker
	state     taskState

	Path string // executable path
	Args []string
	Env  []string
	cwd  string

	files  []*Desc // indexed by fd; nil marks a free slot
	status int     // exit status (valid once zombie)

	children map[int]*Task
	waiters  []waitReq

	// sigActions: signal number -> action (default if absent).
	sigActions map[int]sigAction

	// Synchronous-syscall personality (§3.2): the process's heap and the
	// wake cell it registered.
	heap    *browser.SAB
	waitOff int

	// ring is the task's synchronous syscall transport (nil until the
	// process registers it with the "ring" call).
	ring *taskRing

	// onExit callbacks registered by the kernel API (kernel.system).
	onExit []func(status int)

	startTime int64

	// Snapshot lifecycle (internal/snapshot). snapcap marks a first
	// boot that was asked to capture ("snapcap" pending); snapImage/
	// snapTracker are set on clone boots: the immutable image this task
	// shares pages with and the per-page COW/soft-dirty bitmap whose
	// remaining pins exit reclaim returns.
	snapcap     bool
	snapImage   *snapshot.Image
	snapTracker *snapshot.Tracker
}

type sigAction int

const (
	sigDefault sigAction = iota
	sigCatch
	sigIgnore
)

type waitReq struct {
	pid int // -1 = any child
	cb  func(pid, status int, err abi.Errno)
}

// Cwd returns the task's current working directory.
func (t *Task) Cwd() string { return t.cwd }

// State strings for diagnostics and the terminal's ps.
func (t *Task) StateName() string {
	if t.state == taskZombie {
		return "Z"
	}
	return "R"
}

// Status returns the wait4-style exit status (valid once a zombie).
func (t *Task) Status() int { return t.status }

// Worker exposes the task's Web Worker (tests and diagnostics).
func (t *Task) Worker() *browser.Worker { return t.worker }

// HasHeap reports whether the task has registered a synchronous-syscall
// heap (diagnostics; a live checkpoint of a heap-less task dumps only
// its fd/env/cwd template).
func (t *Task) HasHeap() bool { return t.heap != nil }

// allocFd returns the lowest unused descriptor number, as Unix does.
func (t *Task) allocFd() int {
	for fd, d := range t.files {
		if d == nil {
			return fd
		}
	}
	return len(t.files)
}

// installFd places a descriptor entry at the lowest free slot.
func (t *Task) installFd(d *Desc) int {
	fd := t.allocFd()
	t.setFd(fd, d)
	return fd
}

// setFd places d at fd (0 <= fd < abi.FdMax), growing the table as
// needed.
func (t *Task) setFd(fd int, d *Desc) {
	if fd >= len(t.files) {
		t.files = append(t.files, make([]*Desc, fd+1-len(t.files))...)
	}
	t.files[fd] = d
}

// lookFd resolves a descriptor number.
func (t *Task) lookFd(fd int) (*Desc, abi.Errno) {
	if uint(fd) < uint(len(t.files)) {
		if d := t.files[fd]; d != nil {
			return d, abi.OK
		}
	}
	return nil, abi.EBADF
}

// closeFd removes and unreferences a descriptor.
func (t *Task) closeFd(fd int, cb func(abi.Errno)) {
	d, err := t.lookFd(fd)
	if err != abi.OK {
		cb(err)
		return
	}
	t.files[fd] = nil
	d.Unref(cb)
}

// Fds lists open descriptor numbers in order (diagnostics).
func (t *Task) Fds() []int {
	var out []int
	for fd, d := range t.files {
		if d != nil {
			out = append(out, fd)
		}
	}
	return out
}

// FdPath returns the diagnostic path of an open descriptor.
func (t *Task) FdPath(fd int) string {
	if d, err := t.lookFd(fd); err == abi.OK {
		return d.path
	}
	return ""
}
