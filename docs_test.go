package radqec

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"radqec/internal/exp"
	"radqec/internal/telemetry"
	"radqec/internal/trace"
)

// jsonFields lists the JSON field names of a struct, in order.
func jsonFields(v any) []string {
	var out []string
	t := reflect.TypeOf(v)
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		out = append(out, name)
	}
	return out
}

// TestAPIDocListsSignalAndStatsFields: docs/api.md names exactly the
// fields a campaign stream's point record and the signals stream's two
// record kinds marshal, in struct order, so the wire contract and its
// description cannot drift apart. The field list of each kind is the
// run of backticked names between the paragraph's first colon and its
// first full stop.
func TestAPIDocListsSignalAndStatsFields(t *testing.T) {
	doc, err := os.ReadFile("docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	ticked := regexp.MustCompile("`([a-z_]+)`")
	for _, tc := range []struct {
		lead string
		want []string
	}{
		{"A point record is", jsonFields(exp.PointRecord{})},
		{"A signal record is", jsonFields(telemetry.Signal{})},
		{"The stats record is", jsonFields(telemetry.Stats{})},
	} {
		_, para, ok := strings.Cut(string(doc), tc.lead)
		if !ok {
			t.Fatalf("docs/api.md has no paragraph starting %q", tc.lead)
		}
		_, list, _ := strings.Cut(para, ":")
		list, _, _ = strings.Cut(list, ".")
		var got []string
		for _, m := range ticked.FindAllStringSubmatch(list, -1) {
			got = append(got, m[1])
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("docs/api.md %q lists\n  %v\nthe struct marshals\n  %v", tc.lead, got, tc.want)
		}
	}
}

// TestObservabilityDocListsSpanFields: docs/observability.md names
// every field a trace.Span marshals — the backticked names between
// "Every span carries" and the first full stop — and its span-model
// tree holds exactly the five span kinds, in the order trace declares
// them.
func TestObservabilityDocListsSpanFields(t *testing.T) {
	raw, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	_, list, ok := strings.Cut(doc, "Every span carries")
	if !ok {
		t.Fatal(`docs/observability.md has no paragraph starting "Every span carries"`)
	}
	list, _, _ = strings.Cut(list, ".")
	var got []string
	for _, m := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(list, -1) {
		got = append(got, m[1])
	}
	want := jsonFields(trace.Span{})
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("docs/observability.md: every span carries\n  %v\ntrace.Span marshals\n  %v", got, want)
	}

	_, tree, ok := strings.Cut(doc, "Span model:")
	if !ok {
		t.Fatal(`docs/observability.md has no "Span model:" tree`)
	}
	_, tree, _ = strings.Cut(tree, "```\n")
	tree, _, _ = strings.Cut(tree, "```")
	got = nil
	for _, m := range regexp.MustCompile(`(?m)^(?:[│ ]*[├└]── )?([a-z-]+)`).FindAllStringSubmatch(tree, -1) {
		got = append(got, m[1])
	}
	kinds := []string{trace.SpanCampaign, trace.SpanPoint, trace.SpanChunkRun, trace.SpanDecode, trace.SpanStoreCommit}
	if !slices.Equal(got, kinds) {
		t.Errorf("docs/observability.md span model holds %v, trace declares %v", got, kinds)
	}
}

// TestReadmeModuleTableListsPackages: README's module table has a row
// for every directory under cmd/ and internal/, and names no directory
// that does not exist. A row's first cell may name several packages,
// each backticked.
func TestReadmeModuleTableListsPackages(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "## Module layout")
	if !ok {
		t.Fatal(`README.md has no "## Module layout" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	var listed []string
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(first, -1) {
			listed = append(listed, m[1])
		}
	}
	var dirs []string
	for _, root := range []string{"cmd", "internal"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, root+"/"+e.Name())
			}
		}
	}
	for _, d := range dirs {
		if !slices.Contains(listed, d) {
			t.Errorf("README.md module table has no row for %s", d)
		}
	}
	for _, l := range listed {
		if !slices.Contains(dirs, l) {
			t.Errorf("README.md module table names %s, which is not a directory under cmd/ or internal/", l)
		}
	}
}

// TestDocReferencesResolve: every cross-reference between documents is
// written (FILE, "Heading"), and FILE must have a heading that starts
// with the quoted text. The scan covers the .go and .md files outside
// bench/. References wrap across lines, in comments too, so runs of
// whitespace and // comment markers collapse to one space before
// matching.
func TestDocReferencesResolve(t *testing.T) {
	ref := regexp.MustCompile(`\(([\w./-]+\.md), "([^"]+)"\)`)
	fold := regexp.MustCompile(`(\s|//)+`)
	found := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || path == ".git") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); d.IsDir() || ext != ".go" && ext != ".md" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range ref.FindAllStringSubmatch(fold.ReplaceAllString(string(raw), " "), -1) {
			found++
			if ok, err := hasHeading(m[1], m[2]); !ok {
				t.Errorf("%s: reference (%s, %q) does not resolve: %v", path, m[1], m[2], err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no (FILE, \"Heading\") reference found; the pattern no longer matches the documents")
	}
}

// hasHeading reports whether the markdown file has a heading, outside
// fenced code blocks, that starts with prefix.
func hasHeading(file, prefix string) (bool, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return false, err
	}
	fenced := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if !fenced && strings.HasPrefix(line, "#") && strings.HasPrefix(strings.TrimSpace(strings.TrimLeft(line, "#")), prefix) {
			return true, nil
		}
	}
	return false, fmt.Errorf("%s has no heading starting with it", file)
}
