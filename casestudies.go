package browsix

import (
	"strings"

	"repro/internal/fs"
	"repro/internal/meme"
	"repro/internal/netsim"
	"repro/internal/rt"
	"repro/internal/tex"

	// Registers the `make` program (the LaTeX build driver).
	_ "repro/internal/mk"
)

// This file stages the paper's case studies onto an Instance: the LaTeX
// editor (§2), the meme generator (§5.1.1), and the terminal (§5.1.2).

// TexMode selects the Emscripten compilation mode for the TeX binaries
// (§2.2: the developer chooses at compile time; only programs that fork —
// GNU Make — require the Emterpreter).
type TexMode int

// TeX compilation modes.
const (
	// TexSync: pdflatex/bibtex as asm.js with synchronous syscalls
	// (Chrome-only in the paper; the ~3 s configuration).
	TexSync TexMode = iota
	// TexAsync: everything under the Emterpreter with asynchronous
	// syscalls (works in all browsers; the ~12 s configuration).
	TexAsync
)

// TexHostName is the netsim host serving the TeX Live tree.
const TexHostName = "texlive.example.com"

// InstallTexProject stages the LaTeX editor's world:
//
//   - a remote HTTP server carrying the TeX Live distribution,
//   - an HTTP-backed, lazily-fetched file system mounted (under an
//     overlay, with locking) at /usr/local/texlive,
//   - pdflatex, bibtex (mode-dependent runtime) and make (always
//     Emterpreter — it forks) in /usr/bin,
//   - the user's project in /proj: main.tex, main.bib, Makefile.
//
// It returns the HTTPFS so callers can observe lazy-fetch behaviour.
func InstallTexProject(in *Instance, cfg tex.TreeConfig, mode TexMode, docTex, docBib string) *fs.HTTPFS {
	tree := tex.BuildTree(cfg)
	in.Net.AddHost(netsim.FileHost(TexHostName, 30_000_000, 12, tree)) // 30ms RTT, ~80MB/s

	sizes := map[string]int64{}
	for p, b := range tree {
		sizes[p] = int64(len(b))
	}
	clock := func() int64 { return in.Sim.Now() }
	httpfs, err := fs.NewHTTPFS(fs.BuildIndex(sizes),
		&netsim.FSFetcher{Net: in.Net, HostNm: TexHostName}, clock)
	if err != nil {
		panic("browsix: tex index: " + err.Error())
	}
	overlay := fs.NewOverlayFS(fs.NewMemFS(clock), httpfs)
	if err := in.FS().MkdirAll("usr/local", 0o755); err != nil {
		panic("browsix: mkdir /usr/local: " + err.Error())
	}
	in.VFS.Mount(tex.TexRoot, overlay)

	texKind := rt.EmSyncKind
	if mode == TexAsync {
		texKind = rt.EmAsyncKind
	}
	stageImage(in, map[string][]byte{
		"/usr/bin/pdflatex": rt.Artifact("pdflatex", texKind),
		"/usr/bin/bibtex":   rt.Artifact("bibtex", texKind),
		// make forks, so it is always the Emterpreter build (§2.2).
		"/usr/bin/make":  rt.Artifact("make", rt.EmAsyncKind),
		"/proj/main.tex": []byte(docTex),
		"/proj/main.bib": []byte(docBib),
		"/proj/Makefile": []byte(tex.ProjectMakefile()),
	}, 0o644)
	return httpfs
}

// BuildPDF is the editor's "Build PDF" button: run make in /proj through
// the process-handle API, capturing output; returns exit code and
// combined log.
func (in *Instance) BuildPDF() (int, string) {
	p, err := in.Start(Spec{Argv: []string{"/usr/bin/make"}, Dir: "/proj"})
	if err != nil {
		return 127, err.Error()
	}
	code, werr := p.Wait()
	if werr != nil {
		return 127, werr.Error()
	}
	out := p.stdout.take()
	errOut := p.stderr.take()
	return code, string(out) + string(errOut)
}

// MemeHostName is the remote meme server of §5.2's comparison.
const MemeHostName = "meme.example.com"

// InstallMeme stages the meme generator: templates + font in the shared
// file system, the GopherJS-compiled server in /usr/bin, and the remote
// (native) twin on the simulated network. rttNs is the round trip to the
// remote server (the paper compares a same-machine server and EC2).
func InstallMeme(in *Instance, rttNs int64) {
	image := meme.StageFiles()
	image["/usr/bin/meme-server"] = rt.Artifact("meme-server", rt.GopherJSKind)
	stageImage(in, image, 0o644)
	in.Net.AddHost(meme.NewRemoteHost(MemeHostName, rttNs, 18))
}

// StartMemeServer launches the in-Browsix server and waits (via the
// socket-notification API) until it is listening, returning its pid.
func (in *Instance) StartMemeServer() int { return in.StartMemeServerArgs() }

// MemeRoute decides where a generation request goes: the paper's policy
// routes to the in-Browsix server when the network is inaccessible or the
// device is powerful (a desktop), otherwise to the cloud.
func (in *Instance) MemeRoute(desktop bool) string {
	if in.Net.Offline || desktop {
		return "browsix"
	}
	return "remote"
}

// GenerateMeme sends the request along the chosen route.
func (in *Instance) GenerateMeme(route string, body []byte) HTTPResponse {
	if route == "browsix" {
		return in.FetchSync("POST", meme.Port, "/api/meme", body)
	}
	return in.FetchRemoteSync(MemeHostName, "POST", "/api/meme", body)
}

// ---------------------------------------------------------------------------
// Terminal (§5.1.2).
// ---------------------------------------------------------------------------

// Terminal drives an interactive dash session — the Browsix terminal
// case study, layered on the Start(Spec{Interactive: true}) handle. The
// shell's output is routed into the terminal's own buffers (Spec sinks),
// so external reads on the process handle cannot disturb Exec's
// prompt-tracking.
type Terminal struct {
	in     *Instance
	proc   *Process
	stdout strings.Builder
	stderr strings.Builder
}

// NewTerminal starts /bin/dash reading from an interactive stdin.
func (in *Instance) NewTerminal() *Terminal {
	t := &Terminal{in: in}
	p, err := in.Start(Spec{
		Argv:        []string{"/bin/dash"},
		Dir:         "/",
		Interactive: true,
		Stdout:      &t.stdout,
		Stderr:      &t.stderr,
	})
	if err != nil {
		panic("browsix: terminal: " + err.Error())
	}
	t.proc = p
	// Wait for the first prompt.
	in.Sim.RunUntil(func() bool { return strings.Contains(t.stderr.String(), "$ ") || p.Exited() })
	return t
}

// Process returns the underlying process handle (pid, Signal, Wait).
// Its output streams are empty: the terminal's sinks receive them.
func (t *Terminal) Process() *Process { return t.proc }

// Exec types one line into the shell and returns the stdout it produced,
// running the simulation until the next prompt (or shell exit).
func (t *Terminal) Exec(line string) string {
	mark := t.stdout.Len()
	prompts := strings.Count(t.stderr.String(), "$ ")
	t.proc.WriteStdin([]byte(line + "\n"))
	t.in.Sim.RunUntil(func() bool {
		return t.proc.Exited() || strings.Count(t.stderr.String(), "$ ") > prompts
	})
	return t.stdout.String()[mark:]
}

// Close ends the session (EOF on stdin) and waits for exit.
func (t *Terminal) Close() int {
	t.proc.CloseStdin()
	code, err := t.proc.Wait()
	if err != nil {
		panic(err.Error())
	}
	return code
}

// Exited reports whether the shell has exited.
func (t *Terminal) Exited() bool { return t.proc.Exited() }

// Code returns the shell's exit code once exited.
func (t *Terminal) Code() int { return t.proc.ExitCode() }
