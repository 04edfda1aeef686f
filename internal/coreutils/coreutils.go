// Package coreutils implements the Unix utilities the Browsix terminal
// ships on its PATH (§5.1.2): "cat, cp, curl, echo, exec, grep, head, ls,
// mkdir, rm, rmdir, sh, sha1sum, sort, stat, tail, tee, touch, wc, and
// xargs", written for Node.js in the paper and here against posix.Proc.
// "These programs run equivalently under Node and BROWSIX without any
// modifications" — ours run under every runtime kind, which is exactly
// what the Figure 9 benchmarks exploit.
//
// Each utility registers itself in the posix program registry; rt.Artifact
// builds their executables and InstallBase stages them into /usr/bin.
package coreutils

import (
	"crypto/sha1"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/abi"
	"repro/internal/posix"
)

// Names lists every utility this package registers.
func Names() []string {
	return []string{
		"cat", "cp", "curl", "echo", "env", "false", "grep", "head",
		"ln", "ls", "mkdir", "printf", "pwd", "readlink", "rm", "rmdir",
		"seq", "sha1sum", "sleep", "sort", "stat", "tail", "tee", "touch",
		"true", "wc", "xargs",
	}
}

func init() {
	posix.Register(&posix.Program{Name: "cat", Main: catMain})
	posix.Register(&posix.Program{Name: "cp", Main: cpMain})
	posix.Register(&posix.Program{Name: "curl", Main: curlMain})
	posix.Register(&posix.Program{Name: "echo", Main: echoMain})
	posix.Register(&posix.Program{Name: "env", Main: envMain})
	posix.Register(&posix.Program{Name: "false", Main: func(posix.Proc) int { return 1 }})
	posix.Register(&posix.Program{Name: "grep", Main: grepMain})
	posix.Register(&posix.Program{Name: "head", Main: headMain})
	posix.Register(&posix.Program{Name: "ln", Main: lnMain})
	posix.Register(&posix.Program{Name: "ls", Main: lsMain})
	posix.Register(&posix.Program{Name: "readlink", Main: readlinkMain})
	posix.Register(&posix.Program{Name: "mkdir", Main: mkdirMain})
	posix.Register(&posix.Program{Name: "printf", Main: printfMain})
	posix.Register(&posix.Program{Name: "pwd", Main: pwdMain})
	posix.Register(&posix.Program{Name: "rm", Main: rmMain})
	posix.Register(&posix.Program{Name: "rmdir", Main: rmdirMain})
	posix.Register(&posix.Program{Name: "seq", Main: seqMain})
	posix.Register(&posix.Program{Name: "sha1sum", Main: sha1sumMain})
	posix.Register(&posix.Program{Name: "sleep", Main: sleepMain})
	posix.Register(&posix.Program{Name: "sort", Main: sortMain})
	posix.Register(&posix.Program{Name: "stat", Main: statMain})
	posix.Register(&posix.Program{Name: "tail", Main: tailMain})
	posix.Register(&posix.Program{Name: "tee", Main: teeMain})
	posix.Register(&posix.Program{Name: "touch", Main: touchMain})
	posix.Register(&posix.Program{Name: "true", Main: func(posix.Proc) int { return 0 }})
	posix.Register(&posix.Program{Name: "wc", Main: wcMain})
	posix.Register(&posix.Program{Name: "xargs", Main: xargsMain})
}

// fail prints a diagnostic to stderr and returns exit code 1.
func fail(p posix.Proc, format string, args ...any) int {
	posix.Fprintf(p, abi.Stderr, p.Args()[0]+": "+format+"\n", args...)
	return 1
}

// parseFlags splits leading -x flags from operands (single-dash bundles
// like -ln are split; "--" ends flag parsing).
func parseFlags(args []string) (flags map[byte]bool, operands []string) {
	flags = map[byte]bool{}
	i := 0
	for ; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			i++
			break
		}
		if len(a) < 2 || a[0] != '-' || a == "-" {
			break
		}
		for _, c := range a[1:] {
			flags[byte(c)] = true
		}
	}
	return flags, args[i:]
}

// forEachInput runs fn over each operand file (or stdin when none),
// mirroring the classic filter-utility convention.
func forEachInput(p posix.Proc, operands []string, fn func(fd int, name string) int) int {
	if len(operands) == 0 {
		return fn(abi.Stdin, "-")
	}
	rc := 0
	for _, name := range operands {
		if name == "-" {
			if c := fn(abi.Stdin, "-"); c != 0 {
				rc = c
			}
			continue
		}
		fd, err := p.Open(name, abi.O_RDONLY, 0)
		if err != abi.OK {
			rc = fail(p, "%s: %v", name, err)
			continue
		}
		if c := fn(fd, name); c != 0 {
			rc = c
		}
		p.Close(fd)
	}
	return rc
}

// --- cat -------------------------------------------------------------------

func catMain(p posix.Proc) int {
	_, operands := parseFlags(p.Args()[1:])
	return forEachInput(p, operands, func(fd int, name string) int {
		// Vectored copy: a pipe capacity's worth of data per kernel
		// crossing. Charge per-byte processing work on top of the I/O.
		n, err := posix.CopyFdVectored(p, abi.Stdout, fd)
		p.CPU(n / 4)
		if err != abi.OK {
			return fail(p, "%s: %v", name, err)
		}
		return 0
	})
}

// --- cp --------------------------------------------------------------------

func cpMain(p posix.Proc) int {
	_, operands := parseFlags(p.Args()[1:])
	if len(operands) != 2 {
		return fail(p, "usage: cp SRC DST")
	}
	src, dst := operands[0], operands[1]
	sfd, err := p.Open(src, abi.O_RDONLY, 0)
	if err != abi.OK {
		return fail(p, "%s: %v", src, err)
	}
	defer p.Close(sfd)
	// cp DIR semantics: target directory gets the source basename.
	if st, serr := p.Stat(dst); serr == abi.OK && st.IsDir() {
		dst = strings.TrimSuffix(dst, "/") + "/" + posix.Basename(src)
	}
	dfd, err := p.Open(dst, abi.O_WRONLY|abi.O_CREAT|abi.O_TRUNC, 0o644)
	if err != abi.OK {
		return fail(p, "%s: %v", dst, err)
	}
	defer p.Close(dfd)
	n, err := posix.CopyFdVectored(p, dfd, sfd)
	p.CPU(n / 8)
	if err != abi.OK {
		return fail(p, "copy: %v", err)
	}
	return 0
}

// --- curl ------------------------------------------------------------------

// curlMain performs an HTTP/1.0-style GET against an in-Browsix socket
// server: curl http://localhost:PORT/path writes the response body to
// stdout (or -o FILE). It is the terminal's way of talking to servers
// started as Browsix processes.
func curlMain(p posix.Proc) int {
	args := p.Args()[1:]
	outPath := ""
	var urls []string
	for i := 0; i < len(args); i++ {
		if args[i] == "-o" && i+1 < len(args) {
			outPath = args[i+1]
			i++
			continue
		}
		urls = append(urls, args[i])
	}
	if len(urls) != 1 {
		return fail(p, "usage: curl [-o FILE] http://localhost:PORT/path")
	}
	port, path, ok := parseURL(urls[0])
	if !ok {
		return fail(p, "unsupported url %q", urls[0])
	}
	fd, err := p.Socket()
	if err != abi.OK {
		return fail(p, "socket: %v", err)
	}
	defer p.Close(fd)
	if err := p.Connect(fd, port); err != abi.OK {
		return fail(p, "connect :%d: %v", port, err)
	}
	req := "GET " + path + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
	if err := posix.WriteString(p, fd, req); err != abi.OK {
		return fail(p, "write: %v", err)
	}
	raw, err := posix.ReadAll(p, fd)
	if err != abi.OK {
		return fail(p, "read: %v", err)
	}
	body := raw
	if i := strings.Index(string(raw), "\r\n\r\n"); i >= 0 {
		body = raw[i+4:]
	}
	p.CPU(int64(len(raw)) / 4)
	if outPath != "" {
		if err := posix.WriteFile(p, outPath, body, 0o644); err != abi.OK {
			return fail(p, "%s: %v", outPath, err)
		}
		return 0
	}
	posix.WriteAll(p, abi.Stdout, body)
	return 0
}

// parseURL extracts (port, path) from http://localhost:PORT/path.
func parseURL(u string) (int, string, bool) {
	rest, ok := strings.CutPrefix(u, "http://")
	if !ok {
		return 0, "", false
	}
	hostport, path, found := strings.Cut(rest, "/")
	if !found {
		path = ""
	}
	_, portStr, found := strings.Cut(hostport, ":")
	if !found {
		portStr = "80"
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return 0, "", false
	}
	return port, "/" + path, true
}

// --- echo ------------------------------------------------------------------

func echoMain(p posix.Proc) int {
	args := p.Args()[1:]
	noNewline := false
	if len(args) > 0 && args[0] == "-n" {
		noNewline = true
		args = args[1:]
	}
	out := strings.Join(args, " ")
	if !noNewline {
		out += "\n"
	}
	posix.WriteString(p, abi.Stdout, out)
	return 0
}

// --- env -------------------------------------------------------------------

func envMain(p posix.Proc) int {
	// One vectored write, one fragment per variable.
	posix.WriteLines(p, abi.Stdout, p.Environ())
	return 0
}

// --- grep ------------------------------------------------------------------

func grepMain(p posix.Proc) int {
	flags, operands := parseFlags(p.Args()[1:])
	if len(operands) == 0 {
		return fail(p, "usage: grep [-vnc] PATTERN [FILE...]")
	}
	re, err := regexp.Compile(operands[0])
	if err != nil {
		return fail(p, "bad pattern: %v", err)
	}
	invert, number, countOnly := flags['v'], flags['n'], flags['c']
	matchedAny := false
	rc := forEachInput(p, operands[1:], func(fd int, name string) int {
		lr := posix.NewLineReader(p, fd)
		count, lineno := 0, 0
		for {
			line, ok, rerr := lr.ReadLine()
			if rerr != abi.OK {
				return fail(p, "%s: %v", name, rerr)
			}
			if !ok {
				break
			}
			lineno++
			p.CPU(int64(len(line)) * 2)
			if re.MatchString(line) != invert {
				matchedAny = true
				count++
				if countOnly {
					continue
				}
				if number {
					posix.Fprintf(p, abi.Stdout, "%d:%s\n", lineno, line)
				} else {
					posix.WriteString(p, abi.Stdout, line+"\n")
				}
			}
		}
		if countOnly {
			posix.Fprintf(p, abi.Stdout, "%d\n", count)
		}
		return 0
	})
	if rc != 0 {
		return 2
	}
	if !matchedAny {
		return 1
	}
	return 0
}

// --- head / tail -----------------------------------------------------------

func headTailCount(args []string) (int, []string) {
	n := 10
	var rest []string
	for i := 0; i < len(args); i++ {
		if args[i] == "-n" && i+1 < len(args) {
			if v, err := strconv.Atoi(args[i+1]); err == nil {
				n = v
			}
			i++
			continue
		}
		if strings.HasPrefix(args[i], "-n") && len(args[i]) > 2 {
			if v, err := strconv.Atoi(args[i][2:]); err == nil {
				n = v
			}
			continue
		}
		rest = append(rest, args[i])
	}
	return n, rest
}

func headMain(p posix.Proc) int {
	n, operands := headTailCount(p.Args()[1:])
	return forEachInput(p, operands, func(fd int, name string) int {
		lr := posix.NewLineReader(p, fd)
		for i := 0; i < n; i++ {
			line, ok, err := lr.ReadLine()
			if err != abi.OK || !ok {
				break
			}
			posix.WriteString(p, abi.Stdout, line+"\n")
		}
		return 0
	})
}

func tailMain(p posix.Proc) int {
	n, operands := headTailCount(p.Args()[1:])
	return forEachInput(p, operands, func(fd int, name string) int {
		lines, err := posix.Lines(p, fd)
		if err != abi.OK {
			return fail(p, "%s: %v", name, err)
		}
		start := len(lines) - n
		if start < 0 {
			start = 0
		}
		for _, line := range lines[start:] {
			posix.WriteString(p, abi.Stdout, line+"\n")
		}
		return 0
	})
}

// --- ls --------------------------------------------------------------------

func lsMain(p posix.Proc) int {
	flags, operands := parseFlags(p.Args()[1:])
	long, all := flags['l'], flags['a']
	if len(operands) == 0 {
		operands = []string{"."}
	}
	rc := 0
	for _, target := range operands {
		st, err := p.Stat(target)
		if err != abi.OK {
			rc = fail(p, "%s: %v", target, err)
			continue
		}
		if !st.IsDir() {
			printEntry(p, long, posix.Basename(target), st)
			continue
		}
		fd, err := p.Open(target, abi.O_RDONLY|abi.O_DIRECTORY, 0)
		if err != abi.OK {
			rc = fail(p, "%s: %v", target, err)
			continue
		}
		ents, err := posix.ReadDir(p, fd)
		p.Close(fd)
		if err != abi.OK {
			rc = fail(p, "%s: %v", target, err)
			continue
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		var names []string
		for _, e := range ents {
			if !all && strings.HasPrefix(e.Name, ".") {
				continue
			}
			p.CPU(2_000)
			names = append(names, e.Name)
		}
		// Collect one fragment per entry and emit the listing as a
		// single vectored write.
		var lines []string
		if long {
			// ls -l stats each entry, like the real utility — as one
			// batched stat storm (a single doorbell on the ring
			// transport).
			paths := make([]string, len(names))
			for i, name := range names {
				paths[i] = strings.TrimSuffix(target, "/") + "/" + name
			}
			ests, serrs := p.StatBatch(paths, true)
			for i, name := range names {
				est := ests[i]
				if serrs[i] != abi.OK {
					est = abi.Stat{}
				}
				lines = append(lines, formatEntry(true, name, est))
			}
		} else {
			lines = names
		}
		posix.WriteLines(p, abi.Stdout, lines)
	}
	return rc
}

func printEntry(p posix.Proc, long bool, name string, st abi.Stat) {
	posix.WriteString(p, abi.Stdout, formatEntry(long, name, st)+"\n")
}

func formatEntry(long bool, name string, st abi.Stat) string {
	if !long {
		return name
	}
	kind := "-"
	switch st.Mode & abi.S_IFMT {
	case abi.S_IFDIR:
		kind = "d"
	case abi.S_IFLNK:
		kind = "l"
	case abi.S_IFIFO:
		kind = "p"
	case abi.S_IFSOCK:
		kind = "s"
	}
	return fmt.Sprintf("%s%03o %8d %12d %s", kind, st.Mode&0o777, st.Size, st.Mtime, name)
}

// --- mkdir / rmdir / rm / touch ---------------------------------------------

func mkdirMain(p posix.Proc) int {
	flags, operands := parseFlags(p.Args()[1:])
	parents := flags['p']
	if len(operands) == 0 {
		return fail(p, "missing operand")
	}
	rc := 0
	for _, dir := range operands {
		if parents {
			if err := mkdirAll(p, dir); err != abi.OK {
				rc = fail(p, "%s: %v", dir, err)
			}
			continue
		}
		if err := p.Mkdir(dir, 0o755); err != abi.OK {
			rc = fail(p, "%s: %v", dir, err)
		}
	}
	return rc
}

func mkdirAll(p posix.Proc, dir string) abi.Errno {
	parts := strings.Split(strings.Trim(dir, "/"), "/")
	prefix := ""
	if strings.HasPrefix(dir, "/") {
		prefix = "/"
	}
	for i := range parts {
		sub := prefix + strings.Join(parts[:i+1], "/")
		if err := p.Mkdir(sub, 0o755); err != abi.OK && err != abi.EEXIST {
			return err
		}
	}
	return abi.OK
}

// --- ln / readlink ---------------------------------------------------------

// lnMain supports symbolic links only (-s), the form the kernel's namei
// walker resolves; hard links are not part of the BrowserFS model.
func lnMain(p posix.Proc) int {
	flags, operands := parseFlags(p.Args()[1:])
	if !flags['s'] {
		return fail(p, "only symbolic links are supported (use -s)")
	}
	if len(operands) != 2 {
		return fail(p, "usage: ln -s TARGET LINK")
	}
	target, link := operands[0], operands[1]
	if st, err := p.Stat(link); err == abi.OK && st.IsDir() {
		link = strings.TrimSuffix(link, "/") + "/" + posix.Basename(target)
	}
	if err := p.Symlink(target, link); err != abi.OK {
		return fail(p, "%s: %v", link, err)
	}
	return 0
}

func readlinkMain(p posix.Proc) int {
	_, operands := parseFlags(p.Args()[1:])
	if len(operands) == 0 {
		return fail(p, "usage: readlink LINK...")
	}
	rc := 0
	for _, link := range operands {
		target, err := p.Readlink(link)
		if err != abi.OK {
			rc = fail(p, "%s: %v", link, err)
			continue
		}
		posix.Fprintf(p, abi.Stdout, "%s\n", target)
	}
	return rc
}

func rmdirMain(p posix.Proc) int {
	_, operands := parseFlags(p.Args()[1:])
	rc := 0
	for _, dir := range operands {
		if err := p.Rmdir(dir); err != abi.OK {
			rc = fail(p, "%s: %v", dir, err)
		}
	}
	return rc
}

func rmMain(p posix.Proc) int {
	flags, operands := parseFlags(p.Args()[1:])
	recursive, force := flags['r'], flags['f']
	rc := 0
	for _, target := range operands {
		if err := removePath(p, target, recursive); err != abi.OK {
			if force && err == abi.ENOENT {
				continue
			}
			rc = fail(p, "%s: %v", target, err)
		}
	}
	return rc
}

func removePath(p posix.Proc, target string, recursive bool) abi.Errno {
	st, err := p.Lstat(target)
	if err != abi.OK {
		return err
	}
	if !st.IsDir() {
		return p.Unlink(target)
	}
	if !recursive {
		return abi.EISDIR
	}
	fd, err := p.Open(target, abi.O_RDONLY|abi.O_DIRECTORY, 0)
	if err != abi.OK {
		return err
	}
	ents, err := posix.ReadDir(p, fd)
	p.Close(fd)
	if err != abi.OK {
		return err
	}
	for _, e := range ents {
		if err := removePath(p, strings.TrimSuffix(target, "/")+"/"+e.Name, true); err != abi.OK {
			return err
		}
	}
	return p.Rmdir(target)
}

func touchMain(p posix.Proc) int {
	_, operands := parseFlags(p.Args()[1:])
	rc := 0
	now := int64(0) // kernel interprets 0/0 via utimes below using explicit times
	for _, target := range operands {
		if _, err := p.Stat(target); err == abi.ENOENT {
			fd, cerr := p.Open(target, abi.O_WRONLY|abi.O_CREAT, 0o644)
			if cerr != abi.OK {
				rc = fail(p, "%s: %v", target, cerr)
				continue
			}
			p.Close(fd)
			continue
		}
		// Advance mtime: read current time indirectly via a fresh stat
		// of a just-created temp marker is overkill; use mtime+1.
		st, _ := p.Stat(target)
		if err := p.Utimes(target, st.Atime, st.Mtime+1_000_000+now); err != abi.OK {
			rc = fail(p, "%s: %v", target, err)
		}
	}
	return rc
}

// --- printf / pwd / seq ------------------------------------------------------

func printfMain(p posix.Proc) int {
	args := p.Args()[1:]
	if len(args) == 0 {
		return fail(p, "missing format")
	}
	format := strings.NewReplacer(`\n`, "\n", `\t`, "\t").Replace(args[0])
	rest := make([]any, len(args)-1)
	for i, a := range args[1:] {
		rest[i] = a
	}
	posix.WriteString(p, abi.Stdout, fmt.Sprintf(format, rest...))
	return 0
}

func pwdMain(p posix.Proc) int {
	cwd, err := p.Getcwd()
	if err != abi.OK {
		return fail(p, "%v", err)
	}
	posix.WriteString(p, abi.Stdout, cwd+"\n")
	return 0
}

func seqMain(p posix.Proc) int {
	args := p.Args()[1:]
	lo, hi := 1, 0
	switch len(args) {
	case 1:
		hi, _ = strconv.Atoi(args[0])
	case 2:
		lo, _ = strconv.Atoi(args[0])
		hi, _ = strconv.Atoi(args[1])
	default:
		return fail(p, "usage: seq [FIRST] LAST")
	}
	var sb strings.Builder
	for i := lo; i <= hi; i++ {
		fmt.Fprintf(&sb, "%d\n", i)
	}
	posix.WriteString(p, abi.Stdout, sb.String())
	return 0
}

// --- sha1sum ----------------------------------------------------------------

func sha1sumMain(p posix.Proc) int {
	_, operands := parseFlags(p.Args()[1:])
	return forEachInput(p, operands, func(fd int, name string) int {
		h := sha1.New()
		var total int64
		for {
			b, err := p.Read(fd, posix.DefaultChunk)
			if err != abi.OK {
				return fail(p, "%s: %v", name, err)
			}
			if len(b) == 0 {
				break
			}
			h.Write(b)
			total += int64(len(b))
			// SHA-1 costs ~2ns/byte natively; the runtime multiplier
			// turns this into the JS-level cost.
			p.CPU(int64(len(b)) * 2)
		}
		posix.Fprintf(p, abi.Stdout, "%x  %s\n", h.Sum(nil), name)
		return 0
	})
}

// --- sleep -------------------------------------------------------------------

// sleepMain burns virtual time: in the simulator, sleeping and spinning
// are both just clock advancement, so sleep N advances the process's
// clock by N seconds (fractions allowed).
func sleepMain(p posix.Proc) int {
	args := p.Args()[1:]
	if len(args) != 1 {
		return fail(p, "usage: sleep SECONDS")
	}
	secs, err := strconv.ParseFloat(args[0], 64)
	if err != nil || secs < 0 {
		return fail(p, "invalid interval %q", args[0])
	}
	// Charged at native scale: a sleep is wall-time, not CPU, so bypass
	// the runtime multiplier by pre-dividing... the Proc interface only
	// exposes CPU; charge in small native slices so the multiplier's
	// effect stays bounded for short sleeps.
	total := int64(secs * 1e9)
	p.CPU(total) // documented approximation: virtual sleep == virtual work
	return 0
}

// --- sort ------------------------------------------------------------------

func sortMain(p posix.Proc) int {
	flags, operands := parseFlags(p.Args()[1:])
	reverse, numeric, unique := flags['r'], flags['n'], flags['u']
	var all []string
	rc := forEachInput(p, operands, func(fd int, name string) int {
		lines, err := posix.Lines(p, fd)
		if err != abi.OK {
			return fail(p, "%s: %v", name, err)
		}
		all = append(all, lines...)
		return 0
	})
	if rc != 0 {
		return rc
	}
	p.CPU(int64(len(all)) * 120) // n log n comparison work
	less := func(a, b string) bool { return a < b }
	if numeric {
		less = func(a, b string) bool {
			na, _ := strconv.ParseFloat(strings.TrimSpace(a), 64)
			nb, _ := strconv.ParseFloat(strings.TrimSpace(b), 64)
			if na != nb {
				return na < nb
			}
			return a < b
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if reverse {
			return less(all[j], all[i])
		}
		return less(all[i], all[j])
	})
	var sb strings.Builder
	var prev string
	for i, line := range all {
		if unique && i > 0 && line == prev {
			continue
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
		prev = line
	}
	posix.WriteString(p, abi.Stdout, sb.String())
	return 0
}

// --- stat ------------------------------------------------------------------

func statMain(p posix.Proc) int {
	_, operands := parseFlags(p.Args()[1:])
	rc := 0
	for _, target := range operands {
		st, err := p.Stat(target)
		if err != abi.OK {
			rc = fail(p, "%s: %v", target, err)
			continue
		}
		kind := "regular file"
		switch st.Mode & abi.S_IFMT {
		case abi.S_IFDIR:
			kind = "directory"
		case abi.S_IFLNK:
			kind = "symbolic link"
		case abi.S_IFIFO:
			kind = "fifo"
		case abi.S_IFSOCK:
			kind = "socket"
		}
		posix.Fprintf(p, abi.Stdout, "  File: %s\n  Size: %d\t%s\n Inode: %d  Links: %d\nModify: %d\n",
			target, st.Size, kind, st.Ino, st.Nlink, st.Mtime)
	}
	return rc
}

// --- tee -------------------------------------------------------------------

func teeMain(p posix.Proc) int {
	flags, operands := parseFlags(p.Args()[1:])
	appendMode := flags['a']
	mode := abi.O_WRONLY | abi.O_CREAT
	if appendMode {
		mode |= abi.O_APPEND
	} else {
		mode |= abi.O_TRUNC
	}
	var outs []int
	for _, name := range operands {
		fd, err := p.Open(name, mode, 0o644)
		if err != abi.OK {
			return fail(p, "%s: %v", name, err)
		}
		outs = append(outs, fd)
	}
	lens := posix.VectoredLens()
	for {
		segs, err := p.Readv(abi.Stdin, lens)
		if err != abi.OK || len(segs) == 0 {
			break
		}
		posix.WritevAll(p, abi.Stdout, segs)
		for _, fd := range outs {
			posix.WritevAll(p, fd, segs)
		}
	}
	for _, fd := range outs {
		p.Close(fd)
	}
	return 0
}

// --- wc --------------------------------------------------------------------

func wcMain(p posix.Proc) int {
	flags, operands := parseFlags(p.Args()[1:])
	showLines, showWords, showBytes := flags['l'], flags['w'], flags['c']
	if !showLines && !showWords && !showBytes {
		showLines, showWords, showBytes = true, true, true
	}
	var totL, totW, totC int64
	files := 0
	lens := posix.VectoredLens()
	rc := forEachInput(p, operands, func(fd int, name string) int {
		var l, w, c int64
		inWord := false
		for {
			segs, err := p.Readv(fd, lens)
			if err != abi.OK {
				return fail(p, "%s: %v", name, err)
			}
			if len(segs) == 0 {
				break
			}
			for _, b := range segs {
				p.CPU(int64(len(b)))
				c += int64(len(b))
				for _, ch := range b {
					if ch == '\n' {
						l++
					}
					space := ch == ' ' || ch == '\n' || ch == '\t' || ch == '\r'
					if !space && !inWord {
						w++
					}
					inWord = !space
				}
			}
		}
		files++
		totL, totW, totC = totL+l, totW+w, totC+c
		printCounts(p, showLines, showWords, showBytes, l, w, c, name)
		return 0
	})
	if files > 1 {
		printCounts(p, showLines, showWords, showBytes, totL, totW, totC, "total")
	}
	return rc
}

func printCounts(p posix.Proc, sl, sw, sc bool, l, w, c int64, name string) {
	var sb strings.Builder
	if sl {
		fmt.Fprintf(&sb, "%8d", l)
	}
	if sw {
		fmt.Fprintf(&sb, "%8d", w)
	}
	if sc {
		fmt.Fprintf(&sb, "%8d", c)
	}
	if name != "-" {
		fmt.Fprintf(&sb, " %s", name)
	}
	sb.WriteByte('\n')
	posix.WriteString(p, abi.Stdout, sb.String())
}

// --- xargs -----------------------------------------------------------------

func xargsMain(p posix.Proc) int {
	args := p.Args()[1:]
	if len(args) == 0 {
		args = []string{"echo"}
	}
	input, err := posix.ReadAll(p, abi.Stdin)
	if err != abi.OK {
		return fail(p, "stdin: %v", err)
	}
	extra := strings.Fields(string(input))
	if len(extra) == 0 {
		return 0
	}
	cmd, lerr := posix.LookPath(p, args[0])
	if lerr != abi.OK {
		return fail(p, "%s: not found", args[0])
	}
	argv := append(append([]string{args[0]}, args[1:]...), extra...)
	pid, serr := p.Spawn(cmd, argv, p.Environ(), nil)
	if serr != abi.OK {
		return fail(p, "spawn %s: %v", cmd, serr)
	}
	_, status, _ := p.Wait4(pid, 0)
	return abi.WEXITSTATUS(status)
}
