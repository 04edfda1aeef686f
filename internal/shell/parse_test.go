package shell

import (
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *listNode {
	t.Helper()
	l, err := parse(src)
	if err != nil {
		t.Fatalf("parse(%q): %v", src, err)
	}
	return l
}

func TestLexWordsAndOperators(t *testing.T) {
	toks, err := lex(`cat a.txt | grep -v 'x y' > out 2>&1 &`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tk := range toks {
		if tk.kind == tEOF {
			break
		}
		kinds = append(kinds, tk.text)
	}
	want := []string{"cat", "a.txt", "|", "grep", "-v", "'x y'", ">", "out", "2>&1", "&"}
	if len(kinds) != len(want) {
		t.Fatalf("tokens = %q, want %q", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token[%d] = %q, want %q", i, kinds[i], want[i])
		}
	}
}

func TestLexQuoteKeepsMetachars(t *testing.T) {
	toks, _ := lex(`echo "a | b; c"`)
	if toks[1].text != `"a | b; c"` {
		t.Fatalf("quoted token = %q", toks[1].text)
	}
}

func TestLexIncompleteQuote(t *testing.T) {
	if _, err := lex(`echo "unterminated`); err != errIncomplete {
		t.Fatalf("err = %v, want errIncomplete", err)
	}
	if _, err := lex(`echo 'open`); err != errIncomplete {
		t.Fatalf("single quote err = %v", err)
	}
}

func TestLexComments(t *testing.T) {
	toks, _ := lex("echo hi # everything here is ignored | > &\n")
	n := 0
	for _, tk := range toks {
		if tk.kind == tWord {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("words after comment strip = %d, want 2", n)
	}
}

func TestLexLineContinuation(t *testing.T) {
	toks, _ := lex("echo a \\\n b")
	var words []string
	for _, tk := range toks {
		if tk.kind == tWord {
			words = append(words, tk.text)
		}
	}
	if len(words) != 3 {
		t.Fatalf("words = %v", words)
	}
}

func TestParsePipelineShape(t *testing.T) {
	l := mustParse(t, "a | b | c")
	pn, ok := l.items[0].n.(*pipeNode)
	if !ok || len(pn.cmds) != 3 {
		t.Fatalf("not a 3-stage pipeline: %#v", l.items[0].n)
	}
}

func TestParseAndOrChain(t *testing.T) {
	l := mustParse(t, "a && b || c")
	ao, ok := l.items[0].n.(*andOrNode)
	if !ok || len(ao.rest) != 2 {
		t.Fatalf("and-or shape wrong: %#v", l.items[0].n)
	}
	if ao.rest[0].op != "&&" || ao.rest[1].op != "||" {
		t.Fatalf("ops = %v %v", ao.rest[0].op, ao.rest[1].op)
	}
}

func TestParseBackgroundFlag(t *testing.T) {
	l := mustParse(t, "slow & fast")
	if !l.items[0].background || l.items[1].background {
		t.Fatalf("background flags: %v %v", l.items[0].background, l.items[1].background)
	}
}

func TestParseRedirections(t *testing.T) {
	l := mustParse(t, "cmd < in > out 2> err")
	s := l.items[0].n.(*simpleNode)
	if len(s.redirs) != 3 {
		t.Fatalf("redirs = %+v", s.redirs)
	}
	ops := []string{s.redirs[0].op, s.redirs[1].op, s.redirs[2].op}
	if ops[0] != "<" || ops[1] != ">" || ops[2] != "2>" {
		t.Fatalf("ops = %v", ops)
	}
}

func TestParseAssignments(t *testing.T) {
	l := mustParse(t, "A=1 B=two cmd arg")
	s := l.items[0].n.(*simpleNode)
	if len(s.assigns) != 2 || len(s.words) != 2 {
		t.Fatalf("assigns=%v words=%v", s.assigns, s.words)
	}
	// '=' inside an operand is not an assignment.
	l = mustParse(t, "cmd key=value")
	s = l.items[0].n.(*simpleNode)
	if len(s.assigns) != 0 || len(s.words) != 2 {
		t.Fatalf("operand= mis-parsed: assigns=%v words=%v", s.assigns, s.words)
	}
}

func TestParseIfRequiresFi(t *testing.T) {
	if _, err := parse("if true; then echo x;"); err != errIncomplete {
		t.Fatalf("err = %v, want errIncomplete", err)
	}
	mustParse(t, "if true; then echo x; fi")
	mustParse(t, "if a; then b; elif c; then d; else e; fi")
}

func TestParseWhileUntilFor(t *testing.T) {
	mustParse(t, "while true; do echo x; done")
	w := mustParse(t, "until false; do echo x; done").items[0].n.(*whileNode)
	if !w.until {
		t.Fatal("until flag not set")
	}
	f := mustParse(t, "for x in a b; do echo $x; done").items[0].n.(*forNode)
	if f.name != "x" || len(f.words) != 2 {
		t.Fatalf("for node: %+v", f)
	}
}

func TestParseSubshellKeepsSource(t *testing.T) {
	l := mustParse(t, "(cd /tmp && pwd) > out")
	sub := l.items[0].n.(*subshellNode)
	if sub.src != "cd /tmp && pwd" {
		t.Fatalf("subshell src = %q", sub.src)
	}
	if len(sub.redirs) != 1 {
		t.Fatalf("subshell redirs = %v", sub.redirs)
	}
}

func TestParseNeverPanics(t *testing.T) {
	// Property: arbitrary byte soup must never panic the parser — it
	// either parses or returns an error.
	f := func(s string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parse(%q) panicked: %v", s, r)
			}
		}()
		_, _ = parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIsAssignment(t *testing.T) {
	cases := map[string]bool{
		"A=1": true, "_x=": true, "PATH=/usr/bin": true,
		"=x": false, "1A=2": false, "a b=c": false, "noequals": false,
	}
	for in, want := range cases {
		if got := isAssignment(in); got != want {
			t.Errorf("isAssignment(%q) = %v", in, got)
		}
	}
}

// FuzzParse feeds arbitrary source to the lexer and the parser: each
// either succeeds or returns an error, never panics, and a source the
// lexer rejects is rejected by the parser too.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		`cat a.txt | grep -v 'x y' > out 2>&1 &`,
		`echo "a | b; c"`,
		`echo "unterminated`,
		`echo 'open`,
		"echo hi # everything here is ignored | > &\n",
		"echo a \\\n b",
		"a | b | c",
		"a && b || c",
		"slow & fast",
		"cmd < in > out 2> err",
		"A=1 B=two cmd arg",
		"cmd key=value",
		"if true; then echo x;",
		"if a; then b; elif c; then d; else e; fi",
		"while true; do echo x; done",
		"until false; do echo x; done",
		"for x in a b; do echo $x; done",
		"(cd /tmp && pwd) > out",
		"echo $((1 + 2 * (3 - 4)))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		_, lerr := lex(s)
		if _, perr := parse(s); lerr != nil && perr == nil {
			t.Fatalf("lex(%q) failed with %v but parse succeeded", s, lerr)
		}
	})
}
