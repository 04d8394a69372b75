package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"radqec/internal/exp"
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

// run re-executes the test binary as radqec on args.
func run(t *testing.T, args ...string) (out string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RADQEC_TEST_MAIN=1")
	b, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		exitCode = exit.ExitCode()
	default:
		t.Fatalf("radqec %v: %v", args, err)
	}
	return string(b), exitCode
}

// TestRemovedFlagsAreUsageErrors: an option that only ever had one
// value is not a flag — the tile width is a constant, a point with a
// store always restarts from its checkpoint, and spans are recorded
// exactly when -trace-out/-trace-chrome name somewhere to write them,
// and every figure decodes with MWPM. Passing the retired flag exits 2
// naming it, never a silently ignored option.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-engine-width", "64", "fig5"},
		{"-resume", "fig5"},
		{"-trace-sample", "on", "fig5"},
		{"-decoder", "uf", "fig5"},
	} {
		out, code := run(t, args...)
		if code != 2 {
			t.Errorf("radqec %v: exit %d, want 2\n%s", args, code, out)
		}
		if !strings.Contains(out, "flag provided but not defined: "+args[0]) {
			t.Errorf("radqec %v: usage error does not name the flag:\n%s", args, out)
		}
	}
}

// TestRetiredEnginesAreUsageErrors: -engine takes tableau or batch. The
// scalar frame engine left the program and auto was only ever batch;
// either name exits 2 with the two that remain.
func TestRetiredEnginesAreUsageErrors(t *testing.T) {
	for _, engine := range []string{"frame", "auto"} {
		out, code := run(t, "-engine", engine, "fig5")
		if code != 2 || !strings.Contains(out, "[tableau batch]") {
			t.Errorf("radqec -engine %s fig5: exit %d, want 2 naming [tableau batch]\n%s", engine, code, out)
		}
	}
}

// TestCampaignSizeCaps: -ns, -rounds and -maxshots just over exp.MaxNS,
// exp.MaxRounds and exp.MaxShots, a -ci whose worst-case count is over
// exp.MaxShots, a NaN -p or -ci, and a -p of 0 (which the experiment
// layer would read as its 0.01 default), exit 2 naming the flag, before
// any code is built or sample allocated. So does a -shots over
// exp.MaxShots, which used to run silently until killed.
func TestCampaignSizeCaps(t *testing.T) {
	for _, args := range [][]string{
		{"-ns", strconv.Itoa(exp.MaxNS + 1)},
		{"-rounds", strconv.Itoa(exp.MaxRounds + 1)},
		{"-p", "NaN"},
		{"-p", "0"},
		{"-ci", "NaN"},
		{"-maxshots", strconv.Itoa(exp.MaxShots + 1)},
		{"-ci", "1e-06"}, // a worst-case count over exp.MaxShots
	} {
		args = append(args, "-shots", "1", "fig3")
		out, code := run(t, args...)
		if code != 2 || !strings.Contains(out, args[0]+" "+args[1]+" out of range") {
			t.Errorf("radqec %v: exit %d, want 2 naming %s\n%s", args, code, args[0], out)
		}
	}
	for _, shots := range []string{strconv.Itoa(exp.MaxShots + 1), "9223372036854775807"} {
		args := []string{"-shots", shots, "-ns", "1", "threshold"}
		out, code := run(t, args...)
		if code != 2 || !strings.Contains(out, "-shots "+shots+" out of range") {
			t.Errorf("radqec %v: exit %d, want 2 naming -shots\n%s", args, code, out)
		}
	}
}

// TestFieldErrorsNameTheFlag: one value outside the campaign domain per
// field exits 2 with exp.Config.Validate's message, prefixed with the
// flag's dash. An empty -engine is the default engine, like an empty
// request field.
func TestFieldErrorsNameTheFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "warp"},
		{"-shots", "0"},
		{"-p", "2"},
		{"-ns", "0"},
		{"-rounds", "1"},
		{"-workers", "-1"},
		{"-ci", "0.5"},
		{"-maxshots", "-1"},
	} {
		args = append(args, "fig3")
		out, code := run(t, args...)
		if code != 2 || !strings.Contains(out, "radqec: "+args[0]+" ") {
			t.Errorf("radqec %v: exit %d, want 2 naming %s\n%s", args, code, args[0], out)
		}
	}
	if out, code := run(t, "-engine", "", "-shots", "1", "fig3"); code != 0 {
		t.Errorf("radqec -engine '' fig3: exit %d, want 0\n%s", code, out)
	}
}

// TestUsageErrorsTouchNoFile: an unknown experiment or a bad flag exits
// 2 before -o is truncated or -store is created.
func TestUsageErrorsTouchNoFile(t *testing.T) {
	// fig8summary is a removed experiment: its table was fig8's grid
	// run a second time.
	for _, args := range [][]string{{"fig99"}, {"fig8summary"}, {"-shots", "0", "fig5"}} {
		dir := t.TempDir()
		outPath, storeDir := filepath.Join(dir, "F"), filepath.Join(dir, "D")
		if err := os.WriteFile(outPath, []byte("kept\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := run(t, append([]string{"-o", outPath, "-store", storeDir}, args...)...)
		if code != 2 {
			t.Errorf("radqec %v: exit %d, want 2\n%s", args, code, out)
		}
		if b, err := os.ReadFile(outPath); err != nil || string(b) != "kept\n" {
			t.Errorf("radqec %v: -o file now holds %q (%v), want it untouched", args, b, err)
		}
		if _, err := os.Stat(storeDir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("radqec %v: -store directory exists after a usage error (%v)", args, err)
		}
	}
}

// TestFlagSet pins the CLI's flag surface: a new flag is a reviewed
// line here, not a drive-by.
func TestFlagSet(t *testing.T) {
	want := []string{
		"ci", "cpuprofile", "csv", "engine", "json", "log-format", "log-level",
		"maxshots", "memprofile", "ns", "o", "p", "rounds", "seed", "shots",
		"stats", "store", "trace-chrome", "trace-out", "workers",
	}
	out, code := run(t, "-h")
	if code != 0 {
		t.Fatalf("radqec -h: exit %d\n%s", code, out)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(out, -1) {
		if !strings.HasPrefix(m[1], "test.") { // the re-executed test binary's own flags
			got = append(got, m[1])
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("radqec -h lists %d flags %v, want %d %v", len(got), got, len(want), want)
	}
}

// TestTraceOutAloneRecordsSpans: naming a span file is the sampling
// decision — no second switch has to agree with it.
func TestTraceOutAloneRecordsSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "S.ndjson")
	out, code := run(t, "-shots", "64", "-ns", "2", "-csv", "-trace-out", path, "fig5")
	if code != 0 {
		t.Fatalf("radqec -trace-out: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "trace written") {
		t.Errorf("no `trace written` log line:\n%s", out)
	}
	spans, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"name":"campaign"`, `"name":"point"`, `"name":"chunk-run"`, `"name":"decode"`} {
		if !bytes.Contains(spans, []byte(kind)) {
			t.Errorf("span file has no %s span", kind)
		}
	}
}

// TestTraceOutInStartOrder: the -trace-out file holds the record shape
// the daemon's trace endpoint serves, in start order — so the campaign
// span, which is recorded when it ends, comes first.
func TestTraceOutInStartOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "S.ndjson")
	if out, code := run(t, "-shots", "64", "-ns", "2", "-csv", "-trace-out", path, "fig5"); code != 0 {
		t.Fatalf("radqec -trace-out: exit %d\n%s", code, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	var last int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp struct {
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line %d: %v", len(names)+1, err)
		}
		if sp.StartNS < last {
			t.Fatalf("span %d (%s) starts at %d, before its predecessor's %d", len(names)+1, sp.Name, sp.StartNS, last)
		}
		last = sp.StartNS
		names = append(names, sp.Name)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 || names[0] != "campaign" {
		t.Fatalf("span file starts %v, want the campaign span first", names[:min(3, len(names))])
	}
}
