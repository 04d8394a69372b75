package main

import (
	"errors"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as the radqecd command
// itself: with RADQECD_TEST_MAIN set it runs main on the given arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RADQECD_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// run re-executes the test binary as radqecd on args; every case here
// exits while parsing flags, before anything listens.
func run(t *testing.T, args ...string) (out string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RADQECD_TEST_MAIN=1")
	b, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		exitCode = exit.ExitCode()
	default:
		t.Fatalf("radqecd %v: %v", args, err)
	}
	return string(b), exitCode
}

// TestRemovedFlagsAreUsageErrors: the HTTP server's header and idle
// limits are constants and the store keeps every committed point
// resident (no script, CI job or deployment ever set them), so the
// flags that used to carry them are unknown — exit 2 naming the flag,
// never a silently ignored option.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-idle-timeout", "1m"},
		{"-read-header-timeout", "1s"},
		{"-max-header-bytes", "1"},
		{"-lru", "8"},
	} {
		out, code := run(t, args...)
		if code != 2 {
			t.Errorf("radqecd %v: exit %d, want 2\n%s", args, code, out)
		}
		if !strings.Contains(out, "flag provided but not defined: "+args[0]) {
			t.Errorf("radqecd %v: usage error does not name the flag:\n%s", args, out)
		}
	}
}

// TestFlagSet pins the daemon's flag surface: a new flag is a reviewed
// line here, not a drive-by.
func TestFlagSet(t *testing.T) {
	want := []string{
		"addr", "log-format", "log-level", "pprof", "store",
		"trace-sample", "workers",
	}
	out, code := run(t, "-h")
	if code != 0 {
		t.Fatalf("radqecd -h: exit %d\n%s", code, out)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(out, -1) {
		if !strings.HasPrefix(m[1], "test.") { // the re-executed test binary's own flags
			got = append(got, m[1])
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("radqecd -h lists %d flags %v, want %d %v", len(got), got, len(want), want)
	}
}
