package radqec

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"radqec/internal/exp"
	"radqec/internal/telemetry"
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
