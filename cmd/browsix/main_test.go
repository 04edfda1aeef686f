package main

import (
	"bytes"
	"strings"
	"testing"

	browsix "repro"
)

// TestCLIRoundTrip drives runLine, the function the CLI runs per input
// line, so `go test` exercises the binary's round trip without spawning a
// process.
func TestCLIRoundTrip(t *testing.T) {
	inst := browsix.Boot(browsix.Config{})
	browsix.InstallBase(inst)

	var stdout, stderr bytes.Buffer
	if code := runLine(inst, "echo hi | wc -c", &stdout, &stderr); code != 0 {
		t.Fatalf("pipeline exited %d: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "3" {
		t.Fatalf("wc -c printed %q, want 3", got)
	}
	if footer := stderr.String(); !strings.HasPrefix(footer, "[ok, ") || !strings.HasSuffix(footer, " virtual ms]\n") {
		t.Fatalf("footer %q, want [ok, … virtual ms]", footer)
	}

	// A failing command reports its exit code without wedging the
	// instance.
	if code := runLine(inst, "false", &stdout, &stderr); code != 1 {
		t.Fatalf("false exited %d, want 1", code)
	}
	if code := runLine(inst, "/no/such/prog", &stdout, &stderr); code != 127 {
		t.Fatalf("missing program exited %d, want 127", code)
	}
	stdout.Reset()
	if code := runLine(inst, "cat /etc/motd", &stdout, &stderr); code != 0 ||
		!strings.Contains(stdout.String(), "Browsix") {
		t.Fatalf("motd: code=%d stdout=%q", code, stdout.String())
	}
}
