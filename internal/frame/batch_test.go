package frame

import (
	"math"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/circuit"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/rng"
	"radqec/internal/stats"
)

// repCampaigns builds the scalar and batched frame campaigns of the same
// repetition-code radiation setup (frame-exact, so both are exact).
func repCampaigns(t testing.TB, d int, p float64, refSeed uint64) (*scalarCampaign, *BatchCampaign) {
	t.Helper()
	code, err := qec.NewRepetition(d)
	if err != nil {
		t.Fatal(err)
	}
	cols := (2*d + 4) / 5
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, cols))
	if err != nil {
		t.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	ev := noise.NewRadiationEvent(dist[2], 1.0, true)
	sim := newScalar(tr.Circuit, noise.NewDepolarizing(p), ev, refSeed)
	scalar := &scalarCampaign{
		Sim:      sim,
		Decode:   code.Decode,
		Expected: code.ExpectedLogical(),
	}
	batched := &BatchCampaign{
		Sim:        sim.BatchSimulator,
		DecodeTile: code.DecodeTile,
		Expected:   code.ExpectedLogical(),
	}
	return scalar, batched
}

// runOne and decodeOne are the one-word (w = 1) views of RunTile and
// of a TileDecodeFunc that the per-word assertions read through.
func runOne(s *BatchSimulator, src *rng.Source, st *BatchState) {
	s.RunTile([]*rng.Source{src}, st)
}

func decodeOne(dec TileDecodeFunc, rec []uint64, live uint64) uint64 {
	var out [1]uint64
	dec(rec, 1, []uint64{live}, out[:])
	return out[0]
}

func TestBatchDeterministicCircuitExact(t *testing.T) {
	// A purely classical circuit: every lane of the batched record must
	// equal the scalar frame outcome bit for bit.
	c := circuit.New(3, 3)
	c.X(0)
	c.CNOT(0, 1)
	c.X(2)
	c.Measure(0, 0)
	c.Measure(1, 1)
	c.Measure(2, 2)
	sim := newScalar(c, noise.Depolarizing{}, nil, 1)
	f := newShotFrame(3)
	bits := make([]int, 3)
	sim.Run(rng.New(2), f, bits)
	b := sim.BatchSimulator
	st := b.NewTileState(1)
	runOne(b, rng.New(2), st)
	for i, want := range bits {
		word := uint64(0)
		if want == 1 {
			word = ^uint64(0)
		}
		if st.Rec[i] != word {
			t.Fatalf("clbit %d: packed %x, scalar bit %d", i, st.Rec[i], want)
		}
	}
}

func TestBatchRunWordDeterministic(t *testing.T) {
	_, batched := repCampaigns(t, 5, 0.01, 3)
	a := batched.Sim.NewTileState(1)
	b := batched.Sim.NewTileState(1)
	runOne(batched.Sim, rng.New(9), a)
	runOne(batched.Sim, rng.New(9), b)
	for i := range a.Rec {
		if a.Rec[i] != b.Rec[i] {
			t.Fatalf("identical sources diverged at clbit %d", i)
		}
	}
}

// crossEngineShots and crossEngineZ state the cross-engine agreement
// tests as what they are: two independent samples of one distribution,
// compared by a pooled two-sample z-score. (Asking one 4096-shot rate
// to sit inside the other's 95% Wilson interval fails about one seed in
// six for two equal samplers.)
const (
	crossEngineShots = 32768
	crossEngineZ     = 4.0
)

func TestBatchMatchesScalar(t *testing.T) {
	// Radiation + depolarizing on the repetition code (frame-exact):
	// the batched and the scalar campaign sample one distribution.
	scalar, batched := repCampaigns(t, 15, 0.01, 3)
	s := scalar.Run(5, crossEngineShots)
	b := batched.Run(6, crossEngineShots)
	if z := stats.TwoSampleZ(b.Errors, b.Shots, s.Errors, s.Shots); math.Abs(z) >= crossEngineZ {
		t.Fatalf("batched rate %.4f vs scalar %.4f: z = %.2f", b.Rate(), s.Rate(), z)
	}
	if b.Errors == 0 {
		t.Fatal("batched engine saw no errors under a full-impact strike")
	}
}

func TestBatchDepolarizingOnlyMatchesScalar(t *testing.T) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.05
	sim := newScalar(code.Circ, noise.NewDepolarizing(p), nil, 7)
	scalar := &scalarCampaign{Sim: sim, Decode: code.Decode, Expected: 1}
	batched := &BatchCampaign{
		Sim:        sim.BatchSimulator,
		DecodeTile: code.DecodeTile,
		Expected:   1,
	}
	const shots = 6000
	s := scalar.Run(11, shots)
	b := batched.Run(13, shots)
	if math.Abs(s.Rate()-b.Rate()) > 0.025 {
		t.Fatalf("engines disagree: scalar %.4f vs batched %.4f", s.Rate(), b.Rate())
	}
	if b.Errors == 0 {
		t.Fatal("batched engine saw no errors at p=0.05")
	}
}

func TestBatchCleanRunErrorFree(t *testing.T) {
	for _, mk := range []func() (*qec.Code, error){
		func() (*qec.Code, error) { return qec.NewRepetition(7) },
		func() (*qec.Code, error) { return qec.NewXXZZ(3, 3) },
	} {
		code, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		camp := &BatchCampaign{
			Sim:        NewBatch(code.Circ, noise.Depolarizing{}, nil, 9),
			DecodeTile: code.DecodeTile,
			Expected:   1,
		}
		if r := camp.Run(1, 500); r.Errors != 0 || r.Shots != 500 {
			t.Fatalf("%s: clean batched campaign produced %+v", code.Name, r)
		}
	}
}

func TestBatchWordBoundaries(t *testing.T) {
	// Shot counts not divisible by 64 must count exactly, and any
	// partition of the range — word-aligned or not — must merge to the
	// whole-run result.
	_, batched := repCampaigns(t, 5, 0.02, 2)
	for _, shots := range []int{1, 63, 64, 65, 100, 1000} {
		if r := batched.Run(44, shots); r.Shots != shots {
			t.Fatalf("Run counted %d shots, want %d", r.Shots, shots)
		}
	}
	whole := batched.Run(44, 1000)
	var merged Result
	for _, r := range [][2]int{{0, 100}, {100, 1}, {101, 27}, {128, 400}, {528, 472}} {
		part := batched.RunFrom(44, r[0], r[1])
		merged.Shots += part.Shots
		merged.Errors += part.Errors
	}
	if merged != whole {
		t.Fatalf("partitioned runs %+v != whole run %+v", merged, whole)
	}
}

func TestLaneDecodeMatchesWordDecoder(t *testing.T) {
	// The generic lane-unpacking adapter and the word-parallel decoder
	// must agree on every lane of real sampled records.
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewBatch(code.Circ, noise.NewDepolarizing(0.1), nil, 3)
	st := sim.NewTileState(1)
	lane := LaneDecodeTile(code.Decode, code.Circ.NumClbits)
	for seed := uint64(0); seed < 8; seed++ {
		runOne(sim, rng.New(seed), st)
		live := ^uint64(0)
		if got, want := decodeOne(code.DecodeTile, st.Rec, live), decodeOne(lane, st.Rec, live); got != want {
			t.Fatalf("seed %d: DecodeTile %x != LaneDecodeTile %x", seed, got, want)
		}
	}
}

func TestBatchExpectedZero(t *testing.T) {
	// Expected=0 campaigns (e.g. custom decoders) must count errors
	// against the zero word.
	c := circuit.New(1, 1)
	c.X(0)
	c.Measure(0, 0)
	camp := &BatchCampaign{
		Sim:        NewBatch(c, noise.Depolarizing{}, nil, 1),
		DecodeTile: func(rec []uint64, w int, live, out []uint64) { copy(out, rec[:w]) },
		Expected:   0,
	}
	if r := camp.Run(1, 130); r.Errors != 130 {
		t.Fatalf("X|0> vs expected 0: %+v", r)
	}
	camp.Expected = 1
	if r := camp.Run(1, 130); r.Errors != 0 {
		t.Fatalf("X|0> vs expected 1: %+v", r)
	}
}

// Fig. 5 repetition-code sampling throughput on the batched engine,
// decode included. The low-p regime is where campaigns spend their lives
// and where the sparse-syndrome fast path pays; shots/s is the headline
// metric.
func BenchmarkFig5RepFrameBatched(b *testing.B) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 2))
	if err != nil {
		b.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	// Temporal sample 3 of the Fig. 5 evolution at p=1e-3.
	ev := noise.NewRadiationEvent(dist[2], noise.TemporalStep(0.3, 10), true)
	camp := &BatchCampaign{
		Sim:        NewBatch(tr.Circuit, noise.NewDepolarizing(1e-3), ev, 1),
		DecodeTile: code.DecodeTile,
		Expected:   1,
	}
	const shots = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp.Run(uint64(i), shots)
	}
	b.StopTimer()
	b.ReportMetric(float64(shots*b.N)/b.Elapsed().Seconds(), "shots/s")
}

// The same at the paper's default p=1e-2 under a full-impact strike —
// the regime where the decoder slow path fires often.
func BenchmarkImpactRep15FrameBatched(b *testing.B) {
	_, bat := repCampaigns(b, 15, 0.01, 1)
	const shots = 2048
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Run(uint64(i), shots)
	}
	b.StopTimer()
	b.ReportMetric(float64(shots*b.N)/b.Elapsed().Seconds(), "shots/s")
}

// --- XXZZ cross-checks: the universal engine on the paper's headline
// code, mirroring the repetition-code suite above ---

// xxzzCampaigns builds the scalar and batched frame campaigns of the
// same XXZZ setup; ev may be nil for depolarizing-only campaigns.
func xxzzCampaigns(t testing.TB, p float64, ev *noise.RadiationEvent, refSeed uint64) (*scalarCampaign, *BatchCampaign) {
	t.Helper()
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	sim := newScalar(tr.Circuit, noise.NewDepolarizing(p), ev, refSeed)
	scalar := &scalarCampaign{
		Sim:      sim,
		Decode:   code.Decode,
		Expected: code.ExpectedLogical(),
	}
	batched := &BatchCampaign{
		Sim:        sim.BatchSimulator,
		DecodeTile: code.DecodeTile,
		Expected:   code.ExpectedLogical(),
	}
	return scalar, batched
}

// xxzzStrike builds a full-impact spreading strike event on the
// transpiled XXZZ-(3,3) circuit.
func xxzzStrike(t testing.TB) *noise.RadiationEvent {
	t.Helper()
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	return noise.NewRadiationEvent(dist[2], 1.0, true)
}

func TestBatchXXZZMatchesScalar(t *testing.T) {
	// Depolarizing + radiation on XXZZ: scalar and batched engines share
	// the identical validity domain (and approximation), so they sample
	// one distribution.
	scalar, batched := xxzzCampaigns(t, 0.01, xxzzStrike(t), 3)
	s := scalar.Run(5, crossEngineShots)
	b := batched.Run(6, crossEngineShots)
	if z := stats.TwoSampleZ(b.Errors, b.Shots, s.Errors, s.Shots); math.Abs(z) >= crossEngineZ {
		t.Fatalf("batched XXZZ rate %.4f vs scalar %.4f: z = %.2f", b.Rate(), s.Rate(), z)
	}
	if b.Errors == 0 {
		t.Fatal("batched engine saw no errors under a full-impact XXZZ strike")
	}
}

func TestBatchXXZZDepolarizingOnlyMatchesScalar(t *testing.T) {
	scalar, batched := xxzzCampaigns(t, 0.03, nil, 7)
	const shots = 6000
	s := scalar.Run(11, shots)
	b := batched.Run(13, shots)
	if math.Abs(s.Rate()-b.Rate()) > 0.025 {
		t.Fatalf("XXZZ engines disagree: scalar %.4f vs batched %.4f", s.Rate(), b.Rate())
	}
	if b.Errors == 0 {
		t.Fatal("batched engine saw no errors at p=0.03")
	}
}

func TestBatchXXZZWordBoundaries(t *testing.T) {
	// Lane/word-boundary invariance on the XXZZ family: shot counts not
	// divisible by 64 count exactly, and any partition of the range
	// merges to the whole-run result.
	_, batched := xxzzCampaigns(t, 0.02, xxzzStrike(t), 2)
	for _, shots := range []int{1, 63, 64, 65, 100, 1000} {
		if r := batched.Run(44, shots); r.Shots != shots {
			t.Fatalf("Run counted %d shots, want %d", r.Shots, shots)
		}
	}
	whole := batched.Run(44, 1000)
	var merged Result
	for _, r := range [][2]int{{0, 100}, {100, 1}, {101, 27}, {128, 400}, {528, 472}} {
		part := batched.RunFrom(44, r[0], r[1])
		merged.Shots += part.Shots
		merged.Errors += part.Errors
	}
	if merged != whole {
		t.Fatalf("partitioned runs %+v != whole run %+v", merged, whole)
	}
}

func TestLaneDecodeMatchesWordDecoderXXZZ(t *testing.T) {
	// On XXZZ records the word-parallel MWPM and union-find decoders
	// must agree lane for lane with their scalar twins.
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewBatch(code.Circ, noise.NewDepolarizing(0.05), nil, 3)
	st := sim.NewTileState(1)
	mwpm := LaneDecodeTile(code.Decode, code.Circ.NumClbits)
	uf := LaneDecodeTile(code.DecodeUnionFind, code.Circ.NumClbits)
	for seed := uint64(0); seed < 8; seed++ {
		runOne(sim, rng.New(seed), st)
		live := ^uint64(0)
		if got, want := decodeOne(code.DecodeTile, st.Rec, live), decodeOne(mwpm, st.Rec, live); got != want {
			t.Fatalf("seed %d: DecodeTile %x != LaneDecodeTile(Decode) %x", seed, got, want)
		}
		if got, want := decodeOne(code.DecodeUnionFindTile, st.Rec, live), decodeOne(uf, st.Rec, live); got != want {
			t.Fatalf("seed %d: DecodeUnionFindTile %x != LaneDecodeTile(DecodeUnionFind) %x", seed, got, want)
		}
	}
}

func TestPerRoundPackedRecordsFeedDetectionEvents(t *testing.T) {
	// The per-round packed records exposed by BatchState.Record are the
	// inputs of word-parallel detection-event extraction: XOR-differencing
	// consecutive rounds (plus the recomputed final syndrome) must
	// reproduce qec's own extraction bit for bit on a multi-round code.
	code, err := qec.NewRepetitionRounds(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewBatch(code.Circ, noise.NewDepolarizing(0.05), nil, 7)
	st := sim.NewTileState(1)
	runOne(sim, rng.New(3), st)

	nz := code.NumZStabs()
	layers := code.Rounds + 1
	manual := make([]uint64, nz*layers)
	for s := 0; s < nz; s++ {
		prev := uint64(0)
		for r := 0; r < code.Rounds; r++ {
			cur := st.Record(code.CRounds[r])[s]
			manual[s*layers+r] = prev ^ cur
			prev = cur
		}
		final := uint64(0)
		for _, d := range code.ZStabilizers()[s] {
			final ^= st.Record(code.DataRead)[d]
		}
		manual[s*layers+layers-1] = prev ^ final
	}
	want, _ := code.DetectionEventWords(st.Rec, nil)
	for i := range manual {
		if manual[i] != want[i] {
			t.Fatalf("detection word %d: manual %x, DetectionEventWords %x", i, manual[i], want[i])
		}
	}
}
