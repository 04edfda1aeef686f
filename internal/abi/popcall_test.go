package abi

// PopCall is PopCallInto with fresh storage for the arguments, for tests
// that keep a popped frame's words.
func (r Ring) PopCall() (seq uint32, trap int, args []int64, ok bool) {
	var dst CallWords
	seq, trap, args, ok = r.PopCallInto(&dst)
	if ok {
		args = append([]int64{}, args...)
	}
	return seq, trap, args, ok
}
