package exp

import (
	"slices"
	"strings"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/qec"
	"radqec/internal/store"
	"radqec/internal/telemetry"
	"radqec/internal/trace"
)

// TestTelemetryRecordsEngine: an experiment run with telemetry attached
// records the engine its points resolved to. The logical layer's points
// run on its own tableau, so its campaign reads both engines, in the
// order they ran, and splits its shots and run time between them: 64
// shots on each of the 2 physical and 12 logical-layer points. A
// single-engine campaign carries no split.
func TestTelemetryRecordsEngine(t *testing.T) {
	tel := telemetry.NewCampaign(1, "threshold")
	cfg := Config{Shots: 64, Seed: 3, Telemetry: tel}
	if _, err := threshold(cfg.Defaults()); err != nil {
		t.Fatal(err)
	}
	if st := tel.Stats(); st.Shots == 0 || st.Engine != EngineBatch || st.Engines != nil {
		t.Fatalf("stats missing telemetry: %+v", st)
	}
	for engine, want := range map[string]string{"": "batch+logical", EngineTableau: "tableau+logical"} {
		tel := telemetry.NewCampaign(1, "logical")
		if _, err := logicalLayer(Config{Shots: 64, Seed: 3, Engine: engine, Telemetry: tel}.Defaults()); err != nil {
			t.Fatal(err)
		}
		st := tel.Stats()
		if st.Engine != want {
			t.Fatalf("logical under engine %q records engine %q, want %q", engine, st.Engine, want)
		}
		var names []string
		var shots, wall int64
		for _, e := range st.Engines {
			names = append(names, e.Name)
			shots += e.Shots
			wall += e.WallNS
		}
		if strings.Join(names, "+") != want || shots != st.Shots || wall != st.WallNS {
			t.Fatalf("logical under engine %q splits %+v, the campaign ran %d shots in %d ns", engine, st.Engines, st.Shots, st.WallNS)
		}
		if st.Engines[0].Shots != 2*64 || st.Engines[1].Shots != 12*64 {
			t.Fatalf("logical under engine %q splits %+v, want 128 physical and 768 logical-layer shots", engine, st.Engines)
		}
	}
}

// assertNoSpanBeforeParent checks every span's parent is recorded and
// started no later than the span did.
func assertNoSpanBeforeParent(t *testing.T, spans []trace.Span) {
	t.Helper()
	byID := make(map[string]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%s span %s has no recorded parent", s.Name, s.Key)
		}
		if s.StartNS < p.StartNS {
			t.Fatalf("%s span of %s starts %d ns before its parent %s span", s.Name, s.Key, p.StartNS-s.StartNS, p.Name)
		}
	}
}

// TestFourReadersAgree: the turn record is written once and read four
// ways. On one sampled fig5 campaign with telemetry and a store, the
// records on the signals ring sum to Stats exactly, every chunk-run,
// decode and store-commit span is as long as its record says, and the
// decode and store-commit histograms moved by one observation per record
// carrying that field.
func TestFourReadersAgree(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := trace.New("test")
	root := rec.Campaign("fig5")
	tel := telemetry.NewCampaign(1, "fig5")
	decode0, commit0 := trace.DecodeHist.Count(), trace.CommitHist.Count()
	// Two tile-aligned batches per point: 320 turns, inside both rings.
	if _, err := fig5(Config{Shots: 1024, Seed: 5, Cache: st, Telemetry: tel, Trace: root.Context()}.Defaults()); err != nil {
		t.Fatal(err)
	}
	root.End()

	sigs, next := tel.Since(0, telemetry.RingSize)
	if int(next) != len(sigs) || rec.Len() > trace.RingSize {
		t.Fatalf("rings wrapped: %d of %d signals, %d spans", len(sigs), next, rec.Len())
	}
	var sum telemetry.Stats
	var withDecode, withCommit uint64
	// Per span kind and point key, the durations the records call for.
	want := map[string]map[string][]int64{trace.SpanChunkRun: {}, trace.SpanDecode: {}, trace.SpanStoreCommit: {}}
	for _, s := range sigs {
		if s.Event != "" || s.CacheHit || s.Hash == "" {
			t.Fatalf("cold stored campaign recorded %+v", s)
		}
		sum.Shots += int64(s.Shots)
		sum.Errors += int64(s.Errors)
		sum.PrepareNS += s.PrepareNS
		sum.WallNS += s.WallNS
		sum.DecodeNS += s.DecodeNS
		sum.CommitNS += s.CommitNS
		sum.Batches++
		want[trace.SpanChunkRun][s.Key] = append(want[trace.SpanChunkRun][s.Key], s.WallNS)
		if s.DecodeNS > 0 {
			withDecode++
			want[trace.SpanDecode][s.Key] = append(want[trace.SpanDecode][s.Key], min(s.DecodeNS, s.WallNS))
		}
		if s.CommitNS > 0 {
			withCommit++
			want[trace.SpanStoreCommit][s.Key] = append(want[trace.SpanStoreCommit][s.Key], s.CommitNS)
		}
		if s.Done {
			sum.PointsDone++
		}
	}
	got := tel.Stats()
	if got.Shots != sum.Shots || got.Errors != sum.Errors || got.Batches != sum.Batches || got.PointsDone != sum.PointsDone ||
		got.PrepareNS != sum.PrepareNS || got.WallNS != sum.WallNS || got.DecodeNS != sum.DecodeNS || got.CommitNS != sum.CommitNS {
		t.Fatalf("Stats %+v, the records sum to %+v", got, sum)
	}
	if got.PointsDone != 160 || got.Batches != 320 || got.CacheMisses != 160 || withCommit != 160 || sum.DecodeNS == 0 {
		t.Fatalf("fig5 at 1024 shots is 160 points of two batches, each committed once: %+v (%d commits)", got, withCommit)
	}
	if d := trace.DecodeHist.Count() - decode0; d != withDecode {
		t.Fatalf("decode histogram observed %d turns, %d records carry decode_ns", d, withDecode)
	}
	if d := trace.CommitHist.Count() - commit0; d != withCommit {
		t.Fatalf("store-commit histogram observed %d turns, %d records carry commit_ns", d, withCommit)
	}

	spans := rec.Spans()
	assertNoSpanBeforeParent(t, spans)
	drawn := map[string]map[string][]int64{trace.SpanChunkRun: {}, trace.SpanDecode: {}, trace.SpanStoreCommit: {}}
	for _, s := range spans {
		if byKey, leaf := drawn[s.Name]; leaf {
			byKey[s.Key] = append(byKey[s.Key], s.DurNS)
		}
	}
	for kind, byKey := range want {
		if len(drawn[kind]) != len(byKey) {
			t.Fatalf("%s spans cover %d points, the records %d", kind, len(drawn[kind]), len(byKey))
		}
		for key, durs := range byKey {
			slices.Sort(durs)
			slices.Sort(drawn[kind][key])
			if !slices.Equal(drawn[kind][key], durs) {
				t.Fatalf("%s spans of %s last %v ns, its records say %v", kind, key, drawn[kind][key], durs)
			}
		}
	}
}

// TestLonePointDecodeInsideWall: a lone point at Workers 2 computes on
// the one sweep worker that holds it, however idle the other is, so every
// turn's decode_ns is a part of its wall_ns and every decode span ends
// inside the chunk-run span it starts with.
func TestLonePointDecodeInsideWall(t *testing.T) {
	code, err := qec.NewXXZZRounds(3, 3, 9) // deep DEM: decode is ~95% of the run
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(code, arch.Mesh(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New("test")
	root := rec.Campaign("lone-point")
	tel := telemetry.NewCampaign(1, "lone-point")
	cfg := Config{Shots: 8192, Seed: 9, Workers: 2, Rounds: 9, Telemetry: tel, Trace: root.Context()}.Defaults()
	runSpecs(cfg, []pointSpec{p.spec("struck", cfg, p.strikeAt(p.usedRoots()[0], 1, false), cfg.Seed)})
	root.End()

	sigs, _ := tel.Since(0, telemetry.RingSize)
	for _, s := range sigs {
		if s.DecodeNS > s.WallNS {
			t.Fatalf("batch %d: decode_ns %d exceeds wall_ns %d", s.Batch, s.DecodeNS, s.WallNS)
		}
	}
	spans := rec.Spans()
	assertNoSpanBeforeParent(t, spans)
	// A turn's chunk-run and decode spans share its parent and start.
	type turnAt struct {
		parent string
		start  int64
	}
	chunkEnd := map[turnAt]int64{}
	for _, s := range spans {
		if s.Name == trace.SpanChunkRun {
			chunkEnd[turnAt{s.Parent, s.StartNS}] = s.StartNS + s.DurNS
		}
	}
	decodes := 0
	for _, s := range spans {
		if s.Name != trace.SpanDecode {
			continue
		}
		decodes++
		end, ok := chunkEnd[turnAt{s.Parent, s.StartNS}]
		if !ok {
			t.Fatalf("decode span at %d has no chunk-run span", s.StartNS)
		}
		if s.StartNS+s.DurNS > end {
			t.Fatalf("decode span ends %d ns after its chunk-run span", s.StartNS+s.DurNS-end)
		}
	}
	if st := tel.Stats(); decodes == 0 || st.DecodeNS == 0 || len(sigs) == 0 {
		t.Fatalf("%d decode spans, %d signals, decode_ns %d: the point never reached the decoder", decodes, len(sigs), st.DecodeNS)
	}
}
