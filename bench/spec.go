package main

import "fmt"

// This file is the benchmark's vocabulary: the workloads, the
// end-to-end metrics with their bounds, and the per-layer metrics with
// the end-to-end metric each one is expected to move. BENCHMARK.json at
// the repository root repeats the names, units, directions and bounds
// for the driver; TestBenchmarkJSONMatchesSpec keeps the two in step.

// runSeconds is how long one end-to-end run measures when -seconds is
// not given; BENCHMARK.json's run_seconds carries the same value.
const runSeconds = 10

// childProcs is the CPU budget handed to every child (radqec -workers,
// radqecd -workers, GOMAXPROCS) and to the harness's own traced run.
// The reference box has two cores; the load generator is closed-loop
// from this one process.
const childProcs = 2

// daemonClients is the number of closed-loop clients of the daemon
// workloads: each sends its next submission only after the previous
// one streamed its table record, with a barrier per round.
const daemonClients = 2

// replayFillSeeds is how many distinct fig5 campaigns the daemon-replay
// workload commits before its timed phase: 28 × 160 points = 4480
// commits against the store's 4096-entry LRU, so replays mix resident
// hits and offset reloads.
const replayFillSeeds = 28

// Daemon workload phases.
const (
	phaseCold   = "cold"   // every round: two new seeds, one per client
	phaseDup    = "dup"    // every round: one new seed submitted twice, in flight together
	phaseReplay = "replay" // every round: two committed seeds, uniform over the filled store
)

// workload is one set of inputs the benchmark runs. An op is one whole
// campaign: a radqec invocation read to EOF over a pipe, or a daemon
// submission read to its table record.
type workload struct {
	Name string
	Why  string
	// Experiment and Shots are the campaign request, identical for the
	// CLI, the in-process traced run and the daemon (Shots 0 = the CLI
	// default of 2000).
	Experiment string
	Shots      int
	// Phase is empty for CLI workloads and names the daemon traffic
	// shape otherwise.
	Phase string
}

func (w workload) shots() int {
	if w.Shots == 0 {
		return 2000
	}
	return w.Shots
}

func (w workload) daemon() bool { return w.Phase != "" }

// request names the campaign a seed selects; ops with equal requests
// must produce equal output.
func (w workload) request(seed uint64) string {
	return fmt.Sprintf("%s/shots%d/seed%d", w.Experiment, w.shots(), seed)
}

var workloads = []workload{
	{
		Name:       "fig6-dense",
		Why:        "radqec fig6 (436 points x 2000 shots, 12 codes): saturating strikes, dense syndromes, decode-miss path (qec.DecodeTile into blossom matching) dominates CPU",
		Experiment: "fig6",
	},
	{
		Name:       "memory-deep",
		Why:        "radqec memory (34 points, rounds 2-9, up to 80 detectors): same qec/matching layer on deep DEMs with 128-bit syndrome keys no full table can cover",
		Experiment: "memory",
	},
	{
		Name:       "fig5-paper",
		Why:        "radqec -shots 40000 fig5 (160 points, 6.4M shots): warm memo on a 12-bit DEM, frame.RunTile kernel dominates; decode-miss and setup work should not move it",
		Experiment: "fig5",
		Shots:      40000,
	},
	{
		Name:       "fig8-points",
		Why:        "radqec -shots 512 fig8 (2470 one-tile points, 12 code x architecture pairs): per-point setup (NewEngineRunner, stab.RunReference) and scheduler handouts dominate",
		Experiment: "fig8",
		Shots:      512,
	},
	{
		Name:       "daemon-cold",
		Why:        "radqecd, 2 closed-loop clients, each round two new fig5 seeds at 2000 shots: server+scheduler+store write path, every point computed and committed",
		Experiment: "fig5",
		Phase:      phaseCold,
	},
	{
		Name:       "daemon-dup",
		Why:        "radqecd, 2 closed-loop clients submitting the same new fig5 seed together each round: the in-flight single-flight case the controller exists for",
		Experiment: "fig5",
		Phase:      phaseDup,
	},
	{
		Name:       "daemon-replay",
		Why:        "radqecd on a store holding 28 fig5 campaigns (4480 commits vs the 4096-entry LRU), 2 clients replaying uniform seeds: store read path, resident hits and offset reloads, no engine work",
		Experiment: "fig5",
		Phase:      phaseReplay,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec names one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before `bench
// compare` (and the driver) call it a regression; per-layer metrics
// carry none. Moves records, for a per-layer metric, which end-to-end
// metric it should move and on which workload — written down before
// measuring, so a saving that shows up elsewhere is visible as such.
// Exact marks counts that repeat exactly for a fixed seed and tree.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
	Exact  bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// The bounds follow the run-to-run spread measured on the two-core
// reference VM (ten runs on ten seeds, interquartile range over median):
// 3-9% on the CLI workloads and up to 15-30% on the daemon workloads
// while the host is busy. A bound has to be three times the spread for
// `compare` to resolve a change of that size, which puts every timing
// metric at the contract's ceiling; the 10% figures ISSUE 11 hoped for
// are not resolvable on this host. oracle_gap_pp repeats exactly; its
// 15% is 3 pp of today's ~23.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "shots_per_s", Unit: "shots/s", Better: higher, Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_s_per_mshot", Unit: "CPU-s/Mshot", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: lower, Bound: 0.25},
	{Name: "oracle_gap_pp", Unit: "pp", Better: lower, Bound: 0.15, Exact: true},
}

const (
	movesDecode  = "shots_per_s, op_p50_ms, cpu_s_per_mshot on fig6-dense and memory-deep (share >= 0.6), fig8-points (~0.25); none on fig5-paper"
	movesExplain = "explains, does not move: the input property that separates fig6-dense from fig5-paper"
	movesMatch   = "via qec.decode_cold_* on fig6-dense, memory-deep; bytes also peak_rss_mib and cpu_s_per_mshot (GC)"
	movesKernel  = "shots_per_s on fig5-paper; <= 10% effect elsewhere"
	movesSetup   = "op_p50_ms on fig8-points (share ~0.45) and daemon-cold; ~0 on fig5-paper"
	movesExp     = "shots_per_s on every CLI workload; bytes also peak_rss_mib"
	movesCmd     = "op_p50_ms on every CLI workload; setup_s"
	movesStoreRd = "op_p50_ms on daemon-replay (resident vs reload); setup_s on daemon-replay"
	movesClient  = "op_p50_ms on daemon-replay, daemon-cold"
	movesFabric  = "none of today's end-to-end metrics; guards the subtraction pass"
	movesValid   = "none: overhead of tracing and validity of the run"
)

var perLayer = []metricSpec{
	{Name: "qec.decode_cold_ns_per_shot", Unit: "ns/shot", Better: lower, Moves: movesDecode},
	{Name: "qec.decode_warm_ns_per_shot", Unit: "ns/shot", Better: lower, Moves: movesDecode},
	{Name: "qec.decode_share", Unit: "share", Better: lower, Moves: movesDecode},
	{Name: "qec.decode_alloc_bytes_per_shot", Unit: "B/shot", Better: lower, Moves: movesDecode},
	{Name: "qec.triggered_share", Unit: "share", Better: lower, Moves: movesExplain, Exact: true},
	{Name: "qec.distinct_syndromes_per_point", Unit: "count", Better: lower, Moves: movesExplain, Exact: true},
	{Name: "qec.tiles", Unit: "count", Better: lower, Moves: movesExplain, Exact: true},
	{Name: "qec.live_lanes", Unit: "count", Better: lower, Moves: movesExplain, Exact: true},
	{Name: "matching.mwpm_ns_k4", Unit: "ns", Better: lower, Moves: movesMatch},
	{Name: "matching.mwpm_ns_k8", Unit: "ns", Better: lower, Moves: movesMatch},
	{Name: "matching.mwpm_ns_k16", Unit: "ns", Better: lower, Moves: movesMatch},
	{Name: "matching.mwpm_bytes_k8", Unit: "B", Better: lower, Moves: movesMatch},
	{Name: "matching.mwpm_allocs_k8", Unit: "count", Better: lower, Moves: movesMatch},
	{Name: "dem.compile_ms", Unit: "ms", Better: lower, Moves: "op_p50_ms on memory-deep; setup_s if moved to start-up"},
	{Name: "frame.kernel_ns_per_shot", Unit: "ns/shot", Better: lower, Moves: movesKernel},
	{Name: "frame.self_ns_per_shot", Unit: "ns/shot", Better: lower, Moves: movesKernel},
	{Name: "frame.run_cold_ns_per_shot", Unit: "ns/shot", Better: lower, Moves: movesKernel},
	{Name: "frame.run_warm_ns_per_shot", Unit: "ns/shot", Better: lower, Moves: movesKernel},
	{Name: "frame.alloc_bytes_per_shot_warm", Unit: "B/shot", Better: lower, Moves: movesKernel},
	{Name: "core.new_runner_us", Unit: "us", Better: lower, Moves: movesSetup},
	{Name: "stab.run_reference_us", Unit: "us", Better: lower, Moves: movesSetup},
	{Name: "arch.transpile_ms", Unit: "ms", Better: lower, Moves: movesSetup},
	{Name: "qec.new_code_us", Unit: "us", Better: lower, Moves: movesSetup},
	{Name: "core.setup_share", Unit: "share", Better: lower, Moves: movesSetup},
	{Name: "exp.run_ms", Unit: "ms", Better: lower, Moves: movesExp},
	{Name: "exp.shots_per_s", Unit: "shots/s", Better: higher, Moves: movesExp},
	{Name: "exp.alloc_bytes_per_shot", Unit: "B/shot", Better: lower, Moves: movesExp},
	{Name: "exp.allocs_per_shot", Unit: "1/shot", Better: lower, Moves: movesExp},
	{Name: "exp.gc_pause_ms", Unit: "ms", Better: lower, Moves: movesExp},
	{Name: "exp.points", Unit: "count", Better: lower, Moves: movesExp, Exact: true},
	{Name: "exp.shots", Unit: "count", Better: lower, Moves: movesExp, Exact: true},
	{Name: "exp.ledger_residual_share", Unit: "share", Better: lower, Moves: "whether the point-level spans add up to exp.run_ms"},
	{Name: "cmd.overhead_ms", Unit: "ms", Better: lower, Moves: movesCmd},
	{Name: "cmd.first_record_ms", Unit: "ms", Better: lower, Moves: movesCmd},
	{Name: "cmd.build_s", Unit: "s", Better: lower, Moves: "none: reported so a slower build is seen"},
	{Name: "cmd.daemon_ready_ms", Unit: "ms", Better: lower, Moves: "setup_s on the daemon workloads"},
	{Name: "sweep.overhead_us_per_chunk", Unit: "us", Better: lower, Moves: "op_p50_ms on fig8-points"},
	{Name: "sweep.replay_us_per_point", Unit: "us", Better: lower, Moves: "op_p50_ms on daemon-replay"},
	{Name: "sweep.speedup_2w", Unit: "ratio", Better: higher, Moves: "shots_per_s everywhere (parallel efficiency)"},
	{Name: "sweep.singleflight_saved_share", Unit: "share", Better: higher, Moves: "op_p50_ms on daemon-dup"},
	{Name: "store.commit_us", Unit: "us", Better: lower, Moves: "op_p50_ms on daemon-cold (writes)"},
	{Name: "store.lookup_resident_us", Unit: "us", Better: lower, Moves: movesStoreRd},
	{Name: "store.lookup_reload_us", Unit: "us", Better: lower, Moves: movesStoreRd},
	{Name: "store.open_replay_ms", Unit: "ms", Better: lower, Moves: movesStoreRd},
	{Name: "store.segment_bytes_per_point", Unit: "B", Better: lower, Moves: movesStoreRd, Exact: true},
	{Name: "store.hit_share", Unit: "share", Better: higher, Moves: movesStoreRd},
	{Name: "store.resident_share", Unit: "share", Better: higher, Moves: movesStoreRd},
	{Name: "client.submit_ms", Unit: "ms", Better: lower, Moves: movesClient},
	{Name: "client.ttfb_ms", Unit: "ms", Better: lower, Moves: movesClient},
	{Name: "client.stream_ms", Unit: "ms", Better: lower, Moves: movesClient},
	{Name: "server.replay_p95_ms", Unit: "ms", Better: lower, Moves: "tail of op latency on daemon-replay (200 replays, 10 beyond)"},
	{Name: "server.bytes_per_campaign", Unit: "B", Better: lower, Moves: movesClient},
	{Name: "server.points_computed", Unit: "count", Better: lower, Moves: "must not rise during replay rounds", Exact: true},
	{Name: "server.metrics_scrape_ms", Unit: "ms", Better: lower, Moves: movesClient},
	{Name: "fabric.ring_owner_ns", Unit: "ns", Better: lower, Moves: movesFabric},
	{Name: "fabric.lease_claim_ns", Unit: "ns", Better: lower, Moves: movesFabric},
	{Name: "client.lookup_point_ms", Unit: "ms", Better: lower, Moves: movesFabric},
	{Name: "client.claim_point_ms", Unit: "ms", Better: lower, Moves: movesFabric},
	{Name: "trace.sampled_overhead_share", Unit: "share", Better: lower, Moves: movesValid},
	{Name: "bench.wrap_overhead_share", Unit: "share", Better: lower, Moves: movesValid},
	{Name: "host.canary_ms", Unit: "ms", Better: lower, Moves: movesValid},
	{Name: "host.nproc", Unit: "count", Better: higher, Moves: movesValid, Exact: true},
	{Name: "host.gomaxprocs", Unit: "count", Better: higher, Moves: movesValid, Exact: true},
}
