package main

import (
	"bytes"
	"fmt"
	"strings"

	browsix "repro"
	"repro/internal/fs"
	"repro/internal/tex"
)

// latex-edit: one editor in a closed loop. Each op writes a seeded
// revision of /proj/main.tex through FS().WriteFile and rebuilds the
// PDF with make (pdflatex, bibtex when the citation order changed,
// pdflatex twice more), the paper's headline case study.

const (
	latexSetups = 3
	latexWindow = 60 // rebuilds whose virtual times and counters are reported
	// Each spawn leaves its executable's bytes behind in the browser's
	// object-URL table, about 14 MB per rebuild, so the editor session
	// is rebuilt from scratch every latexRecycle rebuilds.
	latexRecycle = 10
	latexCollect = 5
	latexStrata  = 10
)

var latexWords = strings.Fields(`unix browser kernel process worker pipe
socket signal file system syscall message shared memory latex bibliography
compile emscripten gopherjs terminal shell server client request response
cache page overlay network lazy fetch build document figure table section`)

var latexCites = []string{"browsix", "doppio", "emscripten"}

// latexDoc renders revision rev of the document: a paragraph of 150-300
// seeded words (length stratified over blocks of revisions) carrying a
// unique marker, and a seeded citation order; a new order rewrites
// main.aux, so bibtex reruns.
func latexDoc(seed uint64, rev int) (doc, marker string) {
	r := newRNG(seed, streamDoc+uint64(rev))
	marker = fmt.Sprintf("Revision %d tag %08x.", rev, uint32(r.next()))
	var sb strings.Builder
	sb.WriteString("\\documentclass{article}\n\\usepackage{graphicx}\n\\usepackage{amsmath, hyperref}\n\\bibliographystyle{plain}\n")
	sb.WriteString(marker)
	order := []int{0, 1, 2}
	for i := 2; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	n := 150 + int(150*stratified(seed, streamWords, rev, latexStrata))
	for w := 0; w < n; w++ {
		if w%50 == 10 {
			fmt.Fprintf(&sb, " \\cite{%s}", latexCites[order[(w/50)%3]])
		}
		sb.WriteByte(' ')
		sb.WriteString(latexWords[r.intn(len(latexWords))])
		if w%12 == 11 {
			sb.WriteString(".\n")
		}
	}
	sb.WriteString(".\n\\bibliography{main}\n")
	return sb.String(), marker
}

type latexRun struct {
	b       *bench
	in      *browsix.Instance
	http    *fs.HTTPFS
	lastPDF []byte
	coldNs  int64
}

// boot builds the editor's world: boot, stage base image, TeX Live
// mount and project, and the cold first build of revision 0.
func (l *latexRun) boot() {
	b := l.b
	if l.in != nil {
		b.ledgerOK(l.in, "latex")
		l.in, l.http = nil, nil // let the old world go before the new one is built
	}
	doc, marker := latexDoc(b.seed, 0)
	_, bib := tex.SampleDocument()
	b.span("api.boot", nil, -1, func() { l.in = browsix.Boot(browsix.Config{}) })
	b.span("api.stage", l.in, -1, func() {
		browsix.InstallBase(l.in)
		l.http = browsix.InstallTexProject(l.in, tex.DefaultTree(), browsix.TexSync, doc, bib)
	})
	l.lastPDF = nil
	l.coldNs = l.build(marker)
}

// build runs make in /proj and checks its outputs. It returns the
// virtual time of the build.
func (l *latexRun) build(marker string) int64 {
	in, b := l.in, l.b
	var out bytes.Buffer
	var code int
	var err error
	v0 := in.Now()
	var p *browsix.Process
	b.span("api.start", in, -1, func() {
		p, err = in.Start(browsix.Spec{Argv: []string{"/usr/bin/make"}, Dir: "/proj", Stdout: &out, Stderr: &out})
	})
	if err == nil {
		b.span("api.wait", in, -1, func() { code, err = p.Wait() })
	}
	virt := in.Now() - v0
	b.attempted++
	b.span("api.verify", nil, -1, func() {
		switch {
		case err != nil:
			b.failf("latex: make: %v", err)
			return
		case code != 0:
			b.failf("latex: make exited %d:\n%s", code, out.String())
			return
		}
		if n := countLines(out.String(), "Output written on main.pdf"); n != 3 {
			b.failf("latex: %d 'Output written' lines, want 3:\n%s", n, out.String())
		}
		pdf, rerr := in.FS().ReadFile("proj/main.pdf")
		switch {
		case rerr != nil:
			b.failf("latex: read main.pdf: %v", rerr)
		case !bytes.HasPrefix(pdf, []byte("%PDF-")) || !bytes.Contains(pdf, []byte(marker)):
			b.failf("latex: main.pdf lacks the revision marker %q", marker)
		case bytes.Equal(pdf, l.lastPDF):
			b.failf("latex: main.pdf did not change with the edit")
		}
		l.lastPDF = pdf
	})
	return virt
}

func runLatex(b *bench) {
	singleThreaded()
	l := &latexRun{b: b}
	b.setup(latexSetups, l.boot)
	b.e2e("virtual_cold_ms", "ms", float64(l.coldNs)/1e6)

	var virt []float64
	li := layerInputs{ops: latexWindow, delta: counters{}}
	loop{
		window:  latexWindow,
		recycle: latexRecycle,
		rebuild: l.boot,
		collect: latexCollect,
		steps:   func() uint64 { return l.in.Sim.Steps() },
		op: func(i int) int {
			in := l.in
			var c0 counters
			if i < latexWindow {
				c0 = readCounters(in)
			}
			doc, marker := latexDoc(b.seed, i+1)
			b.span("api.edit", in, -1, func() {
				if err := in.FS().WriteFile("proj/main.tex", []byte(doc), 0o644); err != nil {
					b.failf("latex: edit: %v", err)
				}
			})
			v := l.build(marker)
			if i < latexWindow {
				virt = append(virt, float64(v))
				c1 := readCounters(in)
				li.delta.add(c1.sub(c0))
				li.cached = c1["fs.cached_pages"]
				li.httpFetches, li.httpBytes = int64(l.http.FetchCount), l.http.BytesFetched
			}
			return 1
		},
	}.run(b)
	b.emitLayers(li)
	b.emitVirtual(virt)
	b.emitCapacity(virt)
	b.ledgerOK(l.in, "latex")
}
