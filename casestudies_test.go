package browsix_test

import (
	"encoding/json"
	"strings"
	"testing"

	browsix "repro"
	"repro/internal/abi"
	"repro/internal/meme"
	"repro/internal/tex"
)

// ---------------------------------------------------------------------------
// LaTeX editor (§2).
// ---------------------------------------------------------------------------

func bootTex(t testing.TB, mode browsix.TexMode) *browsix.Instance {
	t.Helper()
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	docTex, docBib := tex.SampleDocument()
	browsix.InstallTexProject(in, tex.SmallTree(), mode, docTex, docBib)
	return in
}

func TestLatexEditorEndToEnd(t *testing.T) {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	docTex, docBib := tex.SampleDocument()
	httpfs := browsix.InstallTexProject(in, tex.SmallTree(), browsix.TexSync, docTex, docBib)

	code, log := in.BuildPDF()
	if code != 0 {
		t.Fatalf("make failed (%d):\n%s", code, log)
	}
	// The full dance ran: pdflatex for .aux, bibtex, two more pdflatex.
	if got := strings.Count(log, "pdflatex main.tex"); got != 3 {
		t.Fatalf("pdflatex ran %d times, want 3\n%s", got, log)
	}
	if !strings.Contains(log, "bibtex main") {
		t.Fatalf("bibtex did not run:\n%s", log)
	}
	pdf, err := in.FS().ReadFile("proj/main.pdf")
	if err != nil || !strings.HasPrefix(string(pdf), "%PDF-1.5") {
		t.Fatalf("main.pdf: err=%v head=%q", err, head(pdf))
	}
	// The bibliography made it into the final PDF.
	if !strings.Contains(string(pdf), "Powers, Bobby") {
		t.Fatal("resolved citation missing from PDF")
	}
	// .aux/.bbl/.log artifacts exist.
	for _, f := range []string{"proj/main.aux", "proj/main.bbl", "proj/main.log", "proj/main.blg"} {
		if _, err := in.FS().Stat(f); err != nil {
			t.Errorf("%s missing (%v)", f, err)
		}
	}
	// Lazy loading: only the document's dependency cone was fetched,
	// not the whole distribution.
	total := tex.SmallTree()
	fetched := httpfs.FetchCount
	if fetched == 0 {
		t.Fatal("no lazy fetches recorded")
	}
	if fetched >= total.Packages+total.Fonts+total.ExtraFiles {
		t.Fatalf("fetched %d files — lazy loading is not lazy", fetched)
	}

	// Second build: everything up to date, no new fetches (browser cache).
	before := httpfs.FetchCount
	code2, log2 := in.BuildPDF()
	if code2 != 0 || !strings.Contains(log2, "up to date") {
		t.Fatalf("rebuild: code=%d log=%s", code2, log2)
	}
	if httpfs.FetchCount != before {
		t.Fatalf("rebuild refetched files: %d -> %d", before, httpfs.FetchCount)
	}

	// Editing the source triggers an incremental rebuild.
	data, _ := in.FS().ReadFile("proj/main.tex")
	put(t, in, "/proj/main.tex", append(data, []byte("\nNew paragraph.\n")...))
	code3, log3 := in.BuildPDF()
	if code3 != 0 || !strings.Contains(log3, "pdflatex main.tex") {
		t.Fatalf("incremental build: code=%d log=%s", code3, log3)
	}
}

func TestLatexAsyncModeAlsoWorksButSlower(t *testing.T) {
	inSync := bootTex(t, browsix.TexSync)
	startS := inSync.Now()
	codeS, _ := inSync.BuildPDF()
	syncTime := inSync.Now() - startS

	inAsync := bootTex(t, browsix.TexAsync)
	startA := inAsync.Now()
	codeA, _ := inAsync.BuildPDF()
	asyncTime := inAsync.Now() - startA
	if codeS != 0 || codeA != 0 {
		t.Fatalf("sync=%d async=%d", codeS, codeA)
	}
	// §5.2: the Emterpreter/async configuration is several times slower
	// (~3s vs ~12s in the paper).
	if asyncTime <= 2*syncTime {
		t.Fatalf("async (%dms) not >2x sync (%dms)", asyncTime/1e6, syncTime/1e6)
	}
}

func TestLatexMissingPackageFails(t *testing.T) {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	docTex := "\\documentclass{article}\n\\usepackage{does-not-exist}\nBody.\n"
	browsix.InstallTexProject(in, tex.SmallTree(), browsix.TexSync, docTex, "")
	res := runCmd(t, in, "/bin/sh -c 'cd /proj && pdflatex main.tex'")
	if res.Code == 0 {
		t.Fatal("pdflatex succeeded despite missing package")
	}
	if !strings.Contains(string(res.Stderr), "does-not-exist") {
		t.Fatalf("stderr: %s", res.Stderr)
	}
}

func TestLatexCancelViaSIGKILL(t *testing.T) {
	// "If the user cancels PDF generation, BROWSIX sends a SIGKILL
	// signal to these processes."
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	docTex, docBib := tex.SampleDocument()
	browsix.InstallTexProject(in, tex.SmallTree(), browsix.TexSync, docTex, docBib)

	p, err := in.Start(browsix.Spec{Argv: []string{"/bin/sh", "-c", "cd /proj && make"}})
	if err != nil {
		t.Fatal(err)
	}
	// Let the build get going, then kill the make process group leader.
	var makePid int
	in.RunUntil(func() bool {
		for _, task := range in.Kernel.Tasks() {
			if strings.Contains(task.Path, "make") {
				makePid = task.Pid
				return true
			}
		}
		return p.Exited()
	})
	if makePid == 0 {
		t.Fatal("make never started")
	}
	in.Main(func() { in.Kill(makePid, abi.SIGKILL) })
	if !in.RunUntil(p.Exited) {
		t.Fatal("build did not terminate after SIGKILL")
	}
	if p.ExitCode() == 0 {
		t.Fatal("cancelled build reported success")
	}
}

func head(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}

// ---------------------------------------------------------------------------
// Meme generator (§5.1.1).
// ---------------------------------------------------------------------------

func bootMeme(t testing.TB) *browsix.Instance {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	browsix.InstallMeme(in, 50_000_000) // 50ms RTT "EC2"
	in.StartMemeServer()
	return in
}

func TestMemeServerInBrowsix(t *testing.T) {
	in := bootMeme(t)
	resp := in.FetchSync("GET", meme.Port, "/api/templates", nil)
	if resp.Status != 200 {
		t.Fatalf("templates status %d", resp.Status)
	}
	var names []string
	if err := json.Unmarshal(resp.Body, &names); err != nil || len(names) != 5 {
		t.Fatalf("templates: %s (%v)", resp.Body, err)
	}
	body, _ := json.Marshal(meme.GenRequest{Template: "doge", Top: "MUCH UNIX", Bottom: "VERY BROWSER"})
	gen := in.FetchSync("POST", meme.Port, "/api/meme", body)
	if gen.Status != 200 {
		t.Fatalf("generate status %d: %s", gen.Status, gen.Body)
	}
	desc := meme.DescribeImage(gen.Body)
	if !strings.Contains(desc, "256x256") || strings.Contains(desc, " 0 caption") {
		t.Fatalf("generated image: %s", desc)
	}
}

func TestMemeRemoteServerSameCode(t *testing.T) {
	in := bootMeme(t)
	resp := in.FetchRemoteSync(browsix.MemeHostName, "GET", "/api/templates", nil)
	if resp.Status != 200 {
		t.Fatalf("remote templates status %d", resp.Status)
	}
	body, _ := json.Marshal(meme.GenRequest{Template: "fry", Top: "NOT SURE IF", Bottom: "LOCAL OR REMOTE"})
	remote := in.FetchRemoteSync(browsix.MemeHostName, "POST", "/api/meme", body)
	local := in.FetchSync("POST", meme.Port, "/api/meme", body)
	if remote.Status != 200 || local.Status != 200 {
		t.Fatalf("remote=%d local=%d", remote.Status, local.Status)
	}
	// Same source code, same output bytes.
	if string(remote.Body) != string(local.Body) {
		t.Fatalf("remote and in-browsix servers disagree: %s vs %s",
			meme.DescribeImage(remote.Body), meme.DescribeImage(local.Body))
	}
}

func TestMemeDynamicRouting(t *testing.T) {
	in := bootMeme(t)
	if got := in.MemeRoute(true); got != "browsix" {
		t.Fatalf("desktop route = %s", got)
	}
	if got := in.MemeRoute(false); got != "remote" {
		t.Fatalf("mobile online route = %s", got)
	}
	in.Net.Offline = true
	if got := in.MemeRoute(false); got != "browsix" {
		t.Fatalf("offline route = %s", got)
	}
	// Offline generation still works — the case study's payoff.
	body, _ := json.Marshal(meme.GenRequest{Template: "doge", Top: "OFFLINE", Bottom: "STILL WORKS"})
	resp := in.GenerateMeme(in.MemeRoute(false), body)
	if resp.Status != 200 {
		t.Fatalf("offline generation failed: %d", resp.Status)
	}
	// And the remote route now fails.
	remote := in.FetchRemoteSync(browsix.MemeHostName, "GET", "/healthz", nil)
	if remote.Status != 0 {
		t.Fatalf("offline remote fetch returned %d", remote.Status)
	}
}

func TestMemeListFasterInBrowsixThanRemote(t *testing.T) {
	// §5.2: with network latency factored in, the in-Browsix request
	// beats the remote one ("three times as fast" vs EC2).
	in := bootMeme(t)
	t0 := in.Now()
	in.FetchSync("GET", meme.Port, "/api/templates", nil)
	local := in.Now() - t0
	t1 := in.Now()
	in.FetchRemoteSync(browsix.MemeHostName, "GET", "/api/templates", nil)
	remote := in.Now() - t1
	if local >= remote {
		t.Fatalf("in-browsix list (%dus) not faster than remote (%dus)", local/1000, remote/1000)
	}
	if remote < 2*local {
		t.Logf("warning: remote/local ratio %.1f below the paper's ~3x", float64(remote)/float64(local))
	}
}

// ---------------------------------------------------------------------------
// Terminal (§5.1.2).
// ---------------------------------------------------------------------------

func TestTerminalSession(t *testing.T) {
	in := bootBase(t)
	put(t, in, "/home/notes.txt", []byte("apple\nbanana\napple pie\n"))
	term := in.NewTerminal()

	if got := term.Exec("echo hello terminal"); got != "hello terminal\n" {
		t.Fatalf("echo: %q", got)
	}
	// The paper's example pipeline.
	term.Exec("cat /home/notes.txt | grep apple > /home/apples.txt")
	if got := term.Exec("cat /home/apples.txt"); got != "apple\napple pie\n" {
		t.Fatalf("pipeline result: %q", got)
	}
	// Shell state persists across commands.
	term.Exec("cd /home")
	if got := term.Exec("pwd"); got != "/home\n" {
		t.Fatalf("pwd after cd: %q", got)
	}
	term.Exec("X=42")
	if got := term.Exec("echo $X"); got != "42\n" {
		t.Fatalf("var persistence: %q", got)
	}
	// Background execution with &.
	term.Exec("echo bg > /home/bg.txt &")
	term.Exec("wait")
	if got := term.Exec("cat /home/bg.txt"); got != "bg\n" {
		t.Fatalf("background job: %q", got)
	}
	if code := term.Close(); code != 0 {
		t.Fatalf("shell exit code %d", code)
	}
}

func TestTerminalRunsCaseStudyBinaries(t *testing.T) {
	in := browsix.Boot(browsix.Config{})
	browsix.InstallBase(in)
	docTex, docBib := tex.SampleDocument()
	browsix.InstallTexProject(in, tex.SmallTree(), browsix.TexSync, docTex, docBib)
	term := in.NewTerminal()
	out := term.Exec("cd /proj && make && ls main.pdf")
	if !strings.Contains(out, "main.pdf") {
		t.Fatalf("make via terminal: %q", out)
	}
	term.Close()
}
