package browsix_test

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"fmt"
	"path"
	"strings"
	"testing"

	browsix "repro"
	"repro/internal/abi"
)

// bootBase boots an instance with the standard image (coreutils + dash).
func bootBase(t testing.TB) *browsix.Instance {
	t.Helper()
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	return in
}

// cmdResult is one command line run to completion by runCmd.
type cmdResult struct {
	Code    int
	Stdout  []byte
	Stderr  []byte
	Elapsed int64 // virtual ns on the main thread's clock, submission to exit
}

// runCmd runs a command line to completion through Start and Wait. A
// launch error reads as exit 127, as system(3) reports it; a deadlock
// fails the test with the blocked contexts and reads as exit -1. It
// reports with t.Errorf, so fleet workers may call it.
func runCmd(t testing.TB, in *browsix.Instance, cmdline string) cmdResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	start := in.Browser.Main.Now()
	p, err := in.Start(browsix.Spec{Argv: browsix.SplitCmdline(cmdline), Stdout: &stdout, Stderr: &stderr})
	code := 127
	if err == nil {
		code, err = p.Wait()
	}
	var dl *browsix.ErrDeadlock
	if errors.As(err, &dl) {
		t.Errorf("%q: %v", cmdline, dl)
		code = -1
	}
	return cmdResult{Code: code, Stdout: stdout.Bytes(), Stderr: stderr.Bytes(), Elapsed: in.Browser.Main.Now() - start}
}

func runOK(t *testing.T, in *browsix.Instance, cmd string) string {
	t.Helper()
	res := runCmd(t, in, cmd)
	if res.Code != 0 {
		t.Fatalf("%q exited %d\nstdout: %s\nstderr: %s", cmd, res.Code, res.Stdout, res.Stderr)
	}
	return string(res.Stdout)
}

// put stages data at the absolute path p through FS(), creating its
// parent directories. Like runCmd it reports with t.Errorf.
func put(t testing.TB, in *browsix.Instance, p string, data []byte) {
	t.Helper()
	name := strings.TrimPrefix(p, "/")
	err := in.FS().MkdirAll(path.Dir(name), 0o755)
	if err == nil {
		err = in.FS().WriteFile(name, data, 0o644)
	}
	if err != nil {
		t.Errorf("put %s: %v", p, err)
	}
}

func TestQuickstartCat(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/greeting.txt", []byte("hello from browsix\n"))
	if got := runOK(t, in, "cat /greeting.txt"); got != "hello from browsix\n" {
		t.Fatalf("cat output %q", got)
	}
}

func TestShellPipeline(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/data.txt", []byte("apple\nbanana\napple pie\ncherry\n"))
	// The paper's example: cat file.txt | grep apple > apples.txt
	out := runOK(t, in, "cat /data.txt | grep apple > /apples.txt")
	if out != "" {
		t.Fatalf("unexpected stdout %q", out)
	}
	data, err := in.FS().ReadFile("apples.txt")
	if err != nil || string(data) != "apple\napple pie\n" {
		t.Fatalf("apples.txt = %q (%v)", data, err)
	}
}

func TestThreeStagePipeline(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/nums.txt", []byte("3\n1\n2\n1\n"))
	got := runOK(t, in, "cat /nums.txt | sort -n -u | head -n 2")
	if got != "1\n2\n" {
		t.Fatalf("pipeline output %q", got)
	}
}

func TestRedirections(t *testing.T) {
	in := bootBase(t)
	runOK(t, in, "echo one > /f.txt; echo two >> /f.txt")
	data, _ := in.FS().ReadFile("f.txt")
	if string(data) != "one\ntwo\n" {
		t.Fatalf("f.txt = %q", data)
	}
	// stderr redirection and 2>&1.
	runOK(t, in, "cat /missing 2> /err.txt; true")
	errData, _ := in.FS().ReadFile("err.txt")
	if !strings.Contains(string(errData), "ENOENT") {
		t.Fatalf("err.txt = %q", errData)
	}
	out := runOK(t, in, "cat /missing 2>&1 | grep -c ENOENT; true")
	if !strings.HasPrefix(out, "1") {
		t.Fatalf("2>&1 merge failed: %q", out)
	}
	// Input redirection.
	put(t, in, "/in.txt", []byte("redirected\n"))
	if got := runOK(t, in, "cat < /in.txt"); got != "redirected\n" {
		t.Fatalf("< redirection: %q", got)
	}
}

func TestAndOrLists(t *testing.T) {
	in := bootBase(t)
	if got := runOK(t, in, "true && echo yes || echo no"); got != "yes\n" {
		t.Fatalf("&&: %q", got)
	}
	if got := runOK(t, in, "false && echo yes || echo no"); got != "no\n" {
		t.Fatalf("||: %q", got)
	}
	res := runCmd(t, in, "false; true")
	if res.Code != 0 {
		t.Fatalf("list status: %d", res.Code)
	}
	res = runCmd(t, in, "true; false")
	if res.Code != 1 {
		t.Fatalf("list status: %d", res.Code)
	}
}

func TestVariablesAndExport(t *testing.T) {
	in := bootBase(t)
	got := runOK(t, in, `X=browsix; echo "hello $X"`)
	if got != "hello browsix\n" {
		t.Fatalf("var expansion: %q", got)
	}
	// Shell vars don't leak to children; exported ones do.
	got = runOK(t, in, `Y=hidden; env | grep -c '^Y=' ; true`)
	if !strings.HasPrefix(got, "0") {
		t.Fatalf("unexported var leaked: %q", got)
	}
	got = runOK(t, in, `export Z=visible; env | grep -c '^Z='; true`)
	if !strings.HasPrefix(got, "1") {
		t.Fatalf("exported var missing: %q", got)
	}
	// Temporary assignment prefix.
	got = runOK(t, in, `W=temp env | grep '^W='`)
	if got != "W=temp\n" {
		t.Fatalf("temp assignment: %q", got)
	}
}

func TestCommandSubstitution(t *testing.T) {
	in := bootBase(t)
	got := runOK(t, in, `echo "count=$(echo a b c | wc -w)"`)
	if !strings.Contains(got, "count=") || !strings.Contains(got, "3") {
		t.Fatalf("command substitution: %q", got)
	}
}

func TestGlobbing(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/proj/a.tex", []byte("a"))
	put(t, in, "/proj/b.tex", []byte("b"))
	put(t, in, "/proj/c.bib", []byte("c"))
	got := runOK(t, in, "echo /proj/*.tex")
	if got != "/proj/a.tex /proj/b.tex\n" {
		t.Fatalf("glob: %q", got)
	}
	// Unmatched pattern stays literal.
	got = runOK(t, in, "echo /proj/*.pdf")
	if got != "/proj/*.pdf\n" {
		t.Fatalf("unmatched glob: %q", got)
	}
	// Quoted patterns don't glob.
	got = runOK(t, in, `echo "/proj/*.tex"`)
	if got != "/proj/*.tex\n" {
		t.Fatalf("quoted glob: %q", got)
	}
}

func TestIfElifElse(t *testing.T) {
	in := bootBase(t)
	script := `
if [ -f /exists.txt ]; then
  echo have-file
elif [ -d /tmp ]; then
  echo have-tmp
else
  echo nothing
fi`
	got := runOK(t, in, script)
	if got != "have-tmp\n" {
		t.Fatalf("if/elif: %q", got)
	}
	put(t, in, "/exists.txt", []byte("x"))
	got = runOK(t, in, script)
	if got != "have-file\n" {
		t.Fatalf("if after create: %q", got)
	}
}

func TestWhileAndForLoops(t *testing.T) {
	in := bootBase(t)
	// Counted while loop with arithmetic expansion.
	got := runOK(t, in, `i=0; while [ $i -lt 3 ]; do echo "i=$i"; i=$((i+1)); done`)
	if got != "i=0\ni=1\ni=2\n" {
		t.Fatalf("while loop: %q", got)
	}
	got = runOK(t, in, "for f in alpha beta gamma; do echo item-$f; done")
	if got != "item-alpha\nitem-beta\nitem-gamma\n" {
		t.Fatalf("for loop: %q", got)
	}
	// while driven by test on files.
	put(t, in, "/flag", []byte("x"))
	got = runOK(t, in, `while [ -f /flag ]; do echo looped; rm /flag; done`)
	if got != "looped\n" {
		t.Fatalf("while loop: %q", got)
	}
	// until loop.
	got = runOK(t, in, `i=0; until [ $i -ge 2 ]; do i=$((i+1)); echo tick; done`)
	if got != "tick\ntick\n" {
		t.Fatalf("until loop: %q", got)
	}
}

func TestArithmeticExpansionInShell(t *testing.T) {
	in := bootBase(t)
	if got := runOK(t, in, `echo $((6 * 7))`); got != "42\n" {
		t.Fatalf("arith: %q", got)
	}
	if got := runOK(t, in, `N=4; echo $((N * N + 1))`); got != "17\n" {
		t.Fatalf("arith with vars: %q", got)
	}
}

func TestSubshell(t *testing.T) {
	in := bootBase(t)
	got := runOK(t, in, "(cd /tmp && pwd); pwd")
	if got != "/tmp\n/\n" {
		t.Fatalf("subshell isolation: %q", got)
	}
}

func TestBackgroundJobsAndWait(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/w1", []byte("first\n"))
	put(t, in, "/w2", []byte("second\n"))
	got := runOK(t, in, "cat /w1 & cat /w2 & wait")
	if !strings.Contains(got, "first") || !strings.Contains(got, "second") {
		t.Fatalf("background jobs: %q", got)
	}
}

func TestShellScriptWithShebang(t *testing.T) {
	in := bootBase(t)
	script := `#!/bin/sh
# Build greeting
NAME=$1
echo "hi $NAME from script $0"
exit 5
`
	put(t, in, "/usr/bin/greet.sh", []byte(script))
	res := runCmd(t, in, "/usr/bin/greet.sh world")
	if res.Code != 5 {
		t.Fatalf("script exit=%d stderr=%s", res.Code, res.Stderr)
	}
	if !strings.Contains(string(res.Stdout), "hi world from script /usr/bin/greet.sh") {
		t.Fatalf("script out: %q", res.Stdout)
	}
}

func TestPositionalParamsAndShift(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/args.sh", []byte("#!/bin/sh\necho $# $1 $2\nshift\necho $# $1\n"))
	got := runOK(t, in, "/args.sh a b c")
	if got != "3 a b\n2 b\n" {
		t.Fatalf("params: %q", got)
	}
}

func TestXargs(t *testing.T) {
	in := bootBase(t)
	got := runOK(t, in, "echo one two | xargs echo prefix")
	if got != "prefix one two\n" {
		t.Fatalf("xargs: %q", got)
	}
}

func TestSha1sumMatchesCrypto(t *testing.T) {
	in := bootBase(t)
	payload := []byte("browsix reproduction payload\n")
	put(t, in, "/payload.bin", payload)
	got := runOK(t, in, "sha1sum /payload.bin")
	want := fmt.Sprintf("%x  /payload.bin\n", sha1.Sum(payload))
	if got != want {
		t.Fatalf("sha1sum = %q, want %q", got, want)
	}
}

func TestWcCounts(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/text", []byte("one two\nthree\n"))
	got := runOK(t, in, "wc -lwc /text")
	f := strings.Fields(got)
	if len(f) < 4 || f[0] != "2" || f[1] != "3" || f[2] != "14" {
		t.Fatalf("wc: %q", got)
	}
}

func TestLsAndMkdirUtilities(t *testing.T) {
	in := bootBase(t)
	runOK(t, in, "mkdir -p /deep/nested/dir")
	runOK(t, in, "touch /deep/nested/dir/file.txt")
	got := runOK(t, in, "ls /deep/nested/dir")
	if got != "file.txt\n" {
		t.Fatalf("ls: %q", got)
	}
	got = runOK(t, in, "ls -l /deep/nested")
	if !strings.Contains(got, "d") || !strings.Contains(got, "dir") {
		t.Fatalf("ls -l: %q", got)
	}
	runOK(t, in, "rm -r /deep")
	if _, err := in.FS().Stat("deep"); !errors.Is(err, abi.ENOENT) {
		t.Fatal("rm -r left debris")
	}
}

func TestCpAndTee(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/src.txt", []byte("copy me\n"))
	runOK(t, in, "cp /src.txt /dst.txt")
	data, _ := in.FS().ReadFile("dst.txt")
	if string(data) != "copy me\n" {
		t.Fatalf("cp: %q", data)
	}
	got := runOK(t, in, "echo teed | tee /tee1 /tee2")
	if got != "teed\n" {
		t.Fatalf("tee stdout: %q", got)
	}
	d1, _ := in.FS().ReadFile("tee1")
	d2, _ := in.FS().ReadFile("tee2")
	if string(d1) != "teed\n" || string(d2) != "teed\n" {
		t.Fatalf("tee files: %q %q", d1, d2)
	}
}

func TestGrepModes(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/g.txt", []byte("alpha\nbeta\ngamma\nalpha beta\n"))
	if got := runOK(t, in, "grep -n alpha /g.txt"); got != "1:alpha\n4:alpha beta\n" {
		t.Fatalf("grep -n: %q", got)
	}
	if got := runOK(t, in, "grep -v alpha /g.txt"); got != "beta\ngamma\n" {
		t.Fatalf("grep -v: %q", got)
	}
	res := runCmd(t, in, "grep nomatch /g.txt")
	if res.Code != 1 {
		t.Fatalf("grep no-match exit=%d", res.Code)
	}
}

func TestHeadTailSeq(t *testing.T) {
	in := bootBase(t)
	if got := runOK(t, in, "seq 5 | head -n 2"); got != "1\n2\n" {
		t.Fatalf("head: %q", got)
	}
	if got := runOK(t, in, "seq 5 | tail -n 2"); got != "4\n5\n" {
		t.Fatalf("tail: %q", got)
	}
}

func TestExitBuiltinStopsScript(t *testing.T) {
	in := bootBase(t)
	res := runCmd(t, in, "echo before; exit 9; echo after")
	if res.Code != 9 || string(res.Stdout) != "before\n" {
		t.Fatalf("exit: code=%d out=%q", res.Code, res.Stdout)
	}
}

func TestShellExecBuiltin(t *testing.T) {
	in := bootBase(t)
	got := runOK(t, in, "exec echo replaced")
	if got != "replaced\n" {
		t.Fatalf("exec builtin: %q", got)
	}
}

func TestSourceBuiltin(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/lib.sh", []byte("GREETING=sourced\n"))
	got := runOK(t, in, ". /lib.sh; echo $GREETING")
	if got != "sourced\n" {
		t.Fatalf("source: %q", got)
	}
}

func TestTestBuiltinExpressions(t *testing.T) {
	in := bootBase(t)
	cases := []struct {
		expr string
		want int
	}{
		{"[ foo = foo ]", 0},
		{"[ foo = bar ]", 1},
		{"[ foo != bar ]", 0},
		{"[ 3 -lt 5 ]", 0},
		{"[ 5 -lt 3 ]", 1},
		{"[ -z '' ]", 0},
		{"[ -n '' ]", 1},
		{"[ ! -f /nope ]", 0},
		{"[ -d /tmp ]", 0},
	}
	for _, c := range cases {
		res := runCmd(t, in, c.expr)
		if res.Code != c.want {
			t.Errorf("%s -> %d, want %d", c.expr, res.Code, c.want)
		}
	}
}

func TestEnvAndMotd(t *testing.T) {
	in := bootBase(t)
	got := runOK(t, in, "env")
	if !strings.Contains(got, "PATH=/usr/bin:/bin") {
		t.Fatalf("env: %q", got)
	}
	got = runOK(t, in, "cat /etc/motd")
	if !strings.Contains(got, "Browsix") {
		t.Fatalf("motd: %q", got)
	}
}

func TestDeterminism(t *testing.T) {
	// Identical boots must produce identical outputs AND identical
	// virtual timings — the property every experiment relies on.
	run := func() (string, int64) {
		in := bootBase(t)
		put(t, in, "/d.txt", []byte("b\na\nc\n"))
		res := runCmd(t, in, "cat /d.txt | sort | tee /sorted.txt | wc -l")
		return string(res.Stdout), res.Elapsed
	}
	out1, t1 := run()
	out2, t2 := run()
	if out1 != out2 || t1 != t2 {
		t.Fatalf("nondeterminism: (%q,%d) vs (%q,%d)", out1, t1, out2, t2)
	}
}
