package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as the radqec command
// itself: with RADQEC_TEST_MAIN set it runs main on the given arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RADQEC_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestRemovedEngineWidthFlagIsUsageError: the tile width is a constant,
// so the flag that used to select it is unknown — exit 2 naming it, not
// a silently ignored option.
func TestRemovedEngineWidthFlagIsUsageError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-engine-width", "64", "fig5")
	cmd.Env = append(os.Environ(), "RADQEC_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("radqec -engine-width 64 fig5: err = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "engine-width") {
		t.Fatalf("usage error does not name the flag:\n%s", out)
	}
}
