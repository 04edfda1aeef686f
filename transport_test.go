package browsix_test

import (
	"reflect"
	"testing"

	browsix "repro"
)

// transport is how a test program's syscalls reach the kernel: the
// async postMessage codec of the Node runtimes, or the wasm runtime's
// synchronous heap codec, batched on the ring.
type transport int

const (
	async transport = iota
	ring
)

// transports lists every transport in the order differentials compare
// them: the first is the reference.
var transports = []transport{async, ring}

func (tr transport) String() string { return [...]string{"async", "ring"}[tr] }

// variant is one configuration of a differential: a transport and the
// mechanisms switched off.
type variant struct {
	tr transport
	ft browsix.Features
}

// variants enumerates trs × every subset of axes, each axis a Features
// value with the switches it turns off. Per transport the all-on variant
// comes first. A new Features field becomes an axis by naming it here.
func variants(trs []transport, axes ...browsix.Features) []variant {
	var vs []variant
	for _, tr := range trs {
		for set := 0; set < 1<<len(axes); set++ {
			v := variant{tr: tr}
			ft := reflect.ValueOf(&v.ft).Elem()
			for i, ax := range axes {
				if set>>i&1 == 0 {
					continue
				}
				off := reflect.ValueOf(ax)
				for f := 0; f < off.NumField(); f++ {
					if off.Field(f).Bool() {
						ft.Field(f).SetBool(true)
					}
				}
			}
			vs = append(vs, v)
		}
	}
	return vs
}

// String names v by its transport and the switches it turns off.
func (v variant) String() string {
	name, ft := v.tr.String(), reflect.ValueOf(v.ft)
	for f := 0; f < ft.NumField(); f++ {
		if ft.Field(f).Bool() {
			name += "/" + ft.Type().Field(f).Name
		}
	}
	return name
}

// boot boots cfg with v's features and the base image; on a sync
// transport the coreutils are restaged on the wasm runtime so every
// utility syscall travels the path under test.
func (v variant) boot(cfg browsix.Config) *browsix.Instance {
	cfg.Features = v.ft
	in := browsix.Boot(cfg)
	browsix.InstallBase(in)
	if v.tr != async {
		browsix.InstallWasmCoreutils(in)
	}
	return in
}

// Differential proof for the shell case studies: both transports
// run the same pipelines to byte-identical results — and for each
// transport, the VFS caches (dentry + page cache behind the namei
// walker) change nothing observable: cache-on and cache-off runs are
// byte-identical too.
func TestShellCaseStudiesIdenticalAcrossTransports(t *testing.T) {
	payload := make([]byte, 256*1024)
	for i := range payload {
		payload[i] = byte(i*31 + i>>9)
	}
	cmds := []string{
		"cat /data/fruit.txt | grep apple | sort | tee /data/apples.txt | wc -l",
		"cat /big.bin | wc -c",
		"sha1sum /big.bin",
		"echo hello vectored world | tee /out.txt | wc -w",
		"ls /usr/bin",
		"env",
		// Symlinks through the per-component walker: a relative target
		// resolved against its directory, then read back through it.
		"ln -s fruit.txt /data/link",
		"readlink /data/link",
		"cat /data/link",
		"ls /data",
	}
	type result struct {
		stdouts []string
		apples  string
		out     string
		ring    int64
	}
	run := func(v variant) result {
		name, in := v.String(), v.boot(browsix.Config{})
		put(t, in, "/data/fruit.txt", []byte("banana\napple\ncherry\napple pie\n"))
		put(t, in, "/big.bin", payload)
		var r result
		for _, cmd := range cmds {
			res := runCmd(t, in, cmd)
			if res.Code != 0 {
				t.Fatalf("%s: %q exited %d: %s", name, cmd, res.Code, res.Stderr)
			}
			r.stdouts = append(r.stdouts, string(res.Stdout))
		}
		apples, err := in.FS().ReadFile("data/apples.txt")
		if err != nil {
			t.Fatalf("%s: apples.txt: %v", name, err)
		}
		out, err := in.FS().ReadFile("out.txt")
		if err != nil {
			t.Fatalf("%s: out.txt: %v", name, err)
		}
		r.apples, r.out = string(apples), string(out)
		r.ring = in.Kernel.RingSyscalls.Load()
		return r
	}

	// Each transport's cache-on run must match async's, and its
	// cache-off run must match its cache-on run (which comes first).
	warm := map[transport]result{}
	for _, v := range variants(transports, browsix.Features{NoCaches: true}) {
		got, ref, refName := run(v), warm[async], "async"
		switch {
		case v.ft.NoCaches:
			ref, refName = warm[v.tr], "cache-on"
		case v.tr == async:
			warm[async] = got
			continue
		default:
			warm[v.tr] = got
		}
		for i, cmd := range cmds {
			if got.stdouts[i] != ref.stdouts[i] {
				t.Errorf("%s %q: %q != %s %q", v, cmd, got.stdouts[i], refName, ref.stdouts[i])
			}
		}
		if got.apples != ref.apples || got.out != ref.out {
			t.Errorf("%s: apples.txt/out.txt %q/%q != %s %q/%q", v, got.apples, got.out, refName, ref.apples, ref.out)
		}
	}
	if warm[ring].ring == 0 {
		t.Error("ring instance never used the ring transport")
	}
	if got := warm[async].apples; got != "apple\napple pie\n" {
		t.Errorf("apples.txt content %q", got)
	}
	if got := warm[async].stdouts[7]; got != "fruit.txt\n" {
		t.Errorf("readlink output %q", got)
	}
	if got := warm[async].stdouts[8]; got != "banana\napple\ncherry\napple pie\n" {
		t.Errorf("cat-through-symlink output %q", got)
	}
}
