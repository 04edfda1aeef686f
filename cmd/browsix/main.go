// browsix boots a Browsix instance from the host command line and either
// runs a single command, executes a script, or drives an interactive-style
// session from stdin — a quick way to poke at the in-browser Unix without
// writing Go.
//
// Usage:
//
//	go run ./cmd/browsix -c 'echo hi | wc -c'     # one command line
//	echo 'ls /usr/bin' | go run ./cmd/browsix     # commands from stdin
//	go run ./cmd/browsix -tex                     # stage + build the LaTeX project
//	go run ./cmd/browsix -ps -c 'cat /etc/motd'   # dump task info after
//	go run ./cmd/browsix snapshot -c 'sha1sum /etc/motd' -o proc.snap
//	                                              # live-checkpoint the command
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	browsix "repro"
	"repro/internal/browser"
	"repro/internal/tex"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "snapshot" {
		os.Exit(snapshotMain(os.Args[2:]))
	}
	cmd := flag.String("c", "", "command line to run")
	withTex := flag.Bool("tex", false, "stage the LaTeX project (and build it if no -c)")
	withMeme := flag.Bool("meme", false, "stage the meme generator and start its server")
	ps := flag.Bool("ps", false, "print the kernel task table and syscall stats at exit")
	ffx := flag.Bool("firefox", false, "use the Firefox cost profile (default Chrome)")
	flag.Parse()

	cfg := browsix.Config{}
	if *ffx {
		p := browser.Firefox()
		cfg.Browser = &p
	}
	inst := browsix.Boot(cfg)
	browsix.InstallBase(inst)

	if *withTex {
		docTex, docBib := tex.SampleDocument()
		browsix.InstallTexProject(inst, tex.DefaultTree(), browsix.TexSync, docTex, docBib)
		if *cmd == "" {
			*cmd = "/bin/sh -c 'cd /proj && make && ls -l main.pdf'"
		}
	}
	if *withMeme {
		browsix.InstallMeme(inst, 50_000_000)
		inst.StartMemeServer()
		if *cmd == "" {
			*cmd = "curl http://localhost:8888/api/templates"
		}
	}

	exit := 0
	run := func(line string) {
		if code := runLine(inst, line, os.Stdout, os.Stderr); code != 0 {
			exit = code
		}
	}

	switch {
	case *cmd != "":
		run(*cmd)
	default:
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			run(line)
		}
	}

	if *ps {
		fmt.Fprintln(os.Stderr, "--- kernel state ---")
		for _, t := range inst.Kernel.Tasks() {
			fmt.Fprintf(os.Stderr, "pid %3d %s ppid %3d %s\n", t.Pid, t.StateName(), t.ParentPid, t.Path)
		}
		fmt.Fprintf(os.Stderr, "syscalls: %d async, %d sync (%d via ring, %d batched), %d signals\n",
			inst.Kernel.AsyncSyscalls.Load(), inst.Kernel.SyncSyscalls.Load(),
			inst.Kernel.RingSyscalls.Load(), inst.Kernel.RingBatchedCalls.Load(), inst.Kernel.SignalsDelivered.Load())
		fmt.Fprintf(os.Stderr, "mounts: %v\n", inst.VFS.Mounts())
	}
	os.Exit(exit)
}

// runLine runs one command line with stdout and stderr as live sinks, so
// output streams as the guest produces it, then writes a status footer
// with the elapsed virtual time to stderr. It returns the exit code: 127
// when the program cannot be launched, 1 when the simulation deadlocks.
func runLine(inst *browsix.Instance, line string, stdout, stderr io.Writer) int {
	start := inst.Now()
	p, err := inst.Start(browsix.Spec{
		Argv:   browsix.SplitCmdline(line),
		Stdout: stdout,
		Stderr: stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "browsix: %v\n", err)
		return 127
	}
	code, werr := p.Wait()
	elapsed := float64(inst.Now()-start) / 1e6
	if werr != nil {
		fmt.Fprintf(stderr, "browsix: %v\n", werr)
		return 1
	}
	if code != 0 {
		fmt.Fprintf(stderr, "[exit %d, %.2f virtual ms]\n", code, elapsed)
	} else {
		fmt.Fprintf(stderr, "[ok, %.2f virtual ms]\n", elapsed)
	}
	return code
}
