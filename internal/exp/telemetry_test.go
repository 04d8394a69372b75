package exp

import (
	"testing"

	"radqec/internal/telemetry"
)

// TestTelemetryRecordsEngineRoute: an experiment run with telemetry
// attached records the engine-resolution decision behind the campaign.
func TestTelemetryRecordsEngineRoute(t *testing.T) {
	tel := telemetry.NewCampaign(1, "threshold")
	cfg := Config{Shots: 64, Seed: 3, Telemetry: tel}
	if _, err := Threshold(cfg); err != nil {
		t.Fatal(err)
	}
	r := tel.Stats().Route
	if r == nil {
		t.Fatal("no engine route recorded")
	}
	if r.Requested != EngineAuto || r.Resolved == "" || r.Reason == "" {
		t.Fatalf("route = %+v", r)
	}
	if st := tel.Stats(); st.Shots == 0 || st.Route == nil {
		t.Fatalf("stats missing telemetry: %+v", st)
	}
}
