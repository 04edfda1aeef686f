package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Host attribution: the traced half of a run takes a CPU profile and an
// allocation profile of this process, and every sample is charged to
// the innermost module of this repository on its stack.

// modules are the attribution buckets, in report order. "programs" is
// the guest programs (posix, coreutils, shell, tex, mk, meme), "api" the
// root browsix package, "bench" this benchmark's own code, and
// "go-runtime" any stack with none of them (GC workers, the scheduler).
var modules = []string{
	"sched", "browser", "core", "rt", "fs", "netsim", "httpx", "snapshot",
	"programs", "api", "bench", "go-runtime",
}

var internalModule = map[string]string{
	"sched": "sched", "browser": "browser", "core": "core", "abi": "core",
	"rt": "rt", "fs": "fs", "netsim": "netsim", "httpx": "httpx",
	"snapshot": "snapshot", "posix": "programs", "coreutils": "programs",
	"shell": "programs", "tex": "programs", "mk": "programs", "meme": "programs",
}

// moduleOf maps a function name to its bucket, or "" when the function
// belongs to none (standard library, runtime).
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		return internalModule[pkg]
	case strings.HasPrefix(fn, "repro."):
		return "api"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// classify charges a stack (leaf first) to its innermost module.
func classify(funcs []string) string {
	for _, fn := range funcs {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return "go-runtime"
}

// profiles is the traced half's CPU and allocation profiles. They can
// be paused (around world rebuilds); every running stretch is summed.
type profiles struct {
	cpu     []*bytes.Buffer
	alloc   map[string]float64 // bytes allocated while running, per module
	mark    map[string]float64 // allocation totals when last resumed
	running bool
}

func startProfiles() *profiles {
	p := &profiles{alloc: map[string]float64{}}
	p.resume()
	return p
}

func (p *profiles) resume() {
	if p == nil {
		return
	}
	p.mark = allocByModule()
	buf := new(bytes.Buffer)
	if err := pprof.StartCPUProfile(buf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		return
	}
	p.cpu = append(p.cpu, buf)
	p.running = true
}

func (p *profiles) pause() {
	if p == nil {
		return
	}
	if p.running {
		pprof.StopCPUProfile()
		p.running = false
	}
	for m, v := range allocByModule() {
		p.alloc[m] += v - p.mark[m]
	}
}

// stop ends the profiles and records host_share.* and alloc_share.*.
func (p *profiles) stop(b *bench) {
	p.pause()
	host := map[string]float64{}
	for _, buf := range p.cpu {
		by, err := cpuByModule(buf.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		}
		for m, v := range by {
			host[m] += v
		}
	}
	emitShares(b, "host_share.", host)
	emitShares(b, "alloc_share.", p.alloc)
}

func emitShares(b *bench, prefix string, by map[string]float64) {
	var total float64
	for _, v := range by {
		total += v
	}
	for _, m := range modules {
		b.layer(prefix+m, "ratio", ratio(by[m], total))
	}
}

// allocByModule sums the allocation profile (bytes allocated since the
// process started, scaled for sampling as pprof does) per module. A GC
// cycle publishes the latest samples (they lag by up to two cycles).
func allocByModule() map[string]float64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		bytes := float64(r.AllocBytes)
		if rate > 1 {
			avg := bytes / float64(r.AllocObjects)
			bytes /= 1 - math.Exp(-avg/rate)
		}
		out[classify(stackFuncs(r.Stack()))] += bytes
	}
	return out
}

// stackFuncs expands a call stack (leaf first) into function names,
// inlined frames included.
func stackFuncs(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// cpuByModule decodes a gzipped pprof CPU profile and sums its sample
// values (CPU ns) per module.
func cpuByModule(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range prof.samples {
		var funcs []string
		for _, loc := range s.locs {
			for _, fid := range prof.locFuncs[loc] {
				funcs = append(funcs, prof.strings[prof.funcName[fid]])
			}
		}
		if len(s.values) > 0 {
			out[classify(funcs)] += float64(s.values[len(s.values)-1])
		}
	}
	return out, nil
}

// The subset of profile.proto (github.com/google/pprof) read here:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value
//	Location: 1 id, 4 line
//	Line:     1 function_id (innermost inlined frame first)
//	Function: 1 id, 2 name (string_table index)
type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64
	funcName map[uint64]uint64
	strings  []string
}

var errProto = errors.New("malformed profile")

// pbField is one decoded protobuf field: varint value or bytes.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = pbVarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2:
			var s sample
			var vals []uint64
			err := pbFields(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbUints(g, s.locs)
				case 2:
					vals, err = pbUints(g, vals)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					return pbFields(g.data, func(h pbField) error {
						if h.num == 1 {
							funcs = append(funcs, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id, name uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.strings) == 0 {
		return nil, errProto
	}
	for _, name := range p.funcName {
		if name >= uint64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
