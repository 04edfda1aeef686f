// Package browser models the web-platform substrate Browsix is built on:
// single-threaded JavaScript contexts (the main thread and Web Workers),
// asynchronous message passing with structured-clone semantics, Blob URLs,
// timers, and the ECMAScript Shared Memory and Atomics specification
// (SharedArrayBuffer, Atomics.load/store/wait/notify) that Browsix's
// synchronous system calls depend on (§3.2 of the paper).
//
// All costs (postMessage latency, per-byte clone cost, worker spawn time,
// futex wake latency) come from a Profile, so experiments can model
// different browsers — the paper reports different numbers for Chrome and
// Firefox.
package browser

import "fmt"

// Value is a structured-clonable JavaScript value. The allowed dynamic
// types are:
//
//	nil, bool, int (read as int64), int64, float64, string, []byte,
//	[]Value, map[string]Value, *SAB and Shared (both passed by
//	reference, never copied), and SelfCloner (a typed message that
//	moves, copying only the payload it borrows).
//
// Messages between contexts are deep-copied (structured clone), except for
// SharedArrayBuffers which are shared by reference — exactly the browser's
// rules, and the mechanism that makes Browsix's synchronous system calls
// possible.
type Value = any

// Shared marks a host-side object that crosses contexts by reference with
// zero clone cost, like a *SAB. It models transferable/shared platform
// objects the structured-clone algorithm does not copy — the snapshot
// subsystem passes immutable images and per-process dirty trackers through
// init messages this way.
type Shared interface {
	SharedBrowserValue()
}

// SelfCloner is a typed message standing for a plain JS object, such as
// a system-call frame. Its sender never touches it after posting, so
// the message itself moves to the receiver: CloneInPlace copies into
// the message only the payload it borrows from its sender (buffers,
// lists, records) and returns the bytes Clone would charge for the
// object it stands for. A payload the sender gave up with the message
// is not borrowed and moves uncopied: a system-call reply's Data and
// Pollfds belong to the result, while its Segs may be views and are
// copied. A sender that reused a message would have to post a fresh
// one instead.
type SelfCloner interface {
	CloneInPlace() int64
}

// Clone deep-copies a Value with structured-clone semantics and returns the
// copy plus the number of bytes copied (used to charge clone cost). A
// SelfCloner is returned itself, its borrowed payload copied in place.
// It panics on a type outside the structured-clone set, mirroring the
// DataCloneError a browser would throw.
func Clone(v Value) (Value, int64) {
	switch x := v.(type) {
	case nil:
		return nil, 0
	case bool:
		return x, 1
	case int:
		// Tolerate untyped ints from call sites; normalize to int64.
		return int64(x), 8
	case int64:
		return x, 8
	case float64:
		return x, 8
	case string:
		return v, int64(len(x)) // strings are immutable; copy cost still paid
	case []byte:
		c := make([]byte, len(x))
		copy(c, x)
		return c, int64(len(x))
	case []Value:
		var n int64
		out := make([]Value, len(x))
		for i, e := range x {
			c, b := Clone(e)
			out[i] = c
			n += b + 8
		}
		return out, n
	case map[string]Value:
		var n int64
		out := make(map[string]Value, len(x))
		for k, e := range x {
			c, b := Clone(e)
			out[k] = c
			n += b + int64(len(k)) + 8
		}
		return out, n
	case SelfCloner:
		return x, x.CloneInPlace()
	case *SAB:
		return x, 0 // shared, not cloned
	case Shared:
		return x, 0 // shared platform object, passed by reference
	default:
		panic(fmt.Sprintf("browser: DataCloneError: cannot structured-clone %T", v))
	}
}

// Msg helpers: messages in this codebase are map[string]Value objects, like
// the plain JS objects Browsix sends. These accessors tolerate the int /
// int64 normalization Clone performs.

// Int reads an integer value; anything else reads as 0.
func Int(v Value) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	default:
		return 0
	}
}

// GetInt reads an integer field from a message.
func GetInt(m map[string]Value, key string) int64 { return Int(m[key]) }

// GetString reads a string field from a message.
func GetString(m map[string]Value, key string) string {
	s, _ := m[key].(string)
	return s
}

// GetBytes reads a byte-array field from a message.
func GetBytes(m map[string]Value, key string) []byte {
	b, _ := m[key].([]byte)
	return b
}

// GetArray reads an array field from a message.
func GetArray(m map[string]Value, key string) []Value {
	a, _ := m[key].([]Value)
	return a
}

// Strings converts a []Value of strings back to []string.
func Strings(a []Value) []string {
	out := make([]string, len(a))
	for i, v := range a {
		out[i], _ = v.(string)
	}
	return out
}

// StringArray converts []string to a message-ready []Value.
func StringArray(ss []string) []Value {
	out := make([]Value, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}
