package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"radqec/internal/fabric"
	"radqec/internal/matching"
	"radqec/internal/qec"
	"radqec/internal/rng"
	"radqec/internal/store"
	"radqec/internal/sweep"
)

// The fixed-input layer probes: their inputs are constants, not derived
// from -seed or the workload, so their counts repeat exactly and their
// timings compare across workloads and commits.

// canary times a fixed arithmetic spin (the fastest of three, so a
// cold core does not count). Read before and after a run, it says
// whether the host itself changed speed underneath the benchmark.
func canary() time.Duration {
	best := time.Duration(1 << 62)
	for try := 0; try < 3; try++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		canarySink = x
		best = min(best, time.Since(start))
	}
	return best
}

var canarySink uint64

// nsPerCall reports the mean nanoseconds of f over n calls.
func nsPerCall(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// matchingProbe times matching.MinWeightPerfectMatching on the defect
// graphs the MWPM decoder builds: k defects of the rep-(15,1) model
// plus their k boundary images, complete, weighted from the compiled
// detector-error model's distances.
func matchingProbe(spans *spanLog) (map[string]float64, error) {
	code, err := qec.NewRepetition(15)
	if err != nil {
		return nil, err
	}
	m := code.DEM()
	graph := func(k int, src *rng.Source) []matching.Edge {
		type det struct{ s, t int }
		seen := map[det]bool{}
		var defects []det
		for len(defects) < k {
			d := det{src.Intn(m.NumStabs), src.Intn(m.Layers)}
			if !seen[d] {
				seen[d] = true
				defects = append(defects, d)
			}
		}
		var edges []matching.Edge
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, matching.Edge{I: i, J: j,
					W: m.Dist(defects[i].s, defects[i].t, defects[j].s, defects[j].t)})
				edges = append(edges, matching.Edge{I: k + i, J: k + j, W: 0})
			}
			edges = append(edges, matching.Edge{I: i, J: k + i, W: m.BoundaryDist(defects[i].s)})
		}
		return edges
	}
	out := map[string]float64{}
	for _, k := range []int{4, 8, 16} {
		src := rng.New(uint64(k))
		graphs := make([][]matching.Edge, 16)
		for i := range graphs {
			graphs[i] = graph(k, src)
		}
		match := func() {
			for _, edges := range graphs {
				if _, err := matching.MinWeightPerfectMatching(2*k, edges); err != nil {
					panic(fmt.Sprintf("bench: matching probe k=%d: %v", k, err))
				}
			}
		}
		match() // warm
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id := spans.begin(fmt.Sprintf("matching.MinWeightPerfectMatching.k%d", k), -1)
		const rounds = 20
		for i := 0; i < rounds; i++ {
			match()
		}
		d := spans.end(id, 0)
		runtime.ReadMemStats(&after)
		calls := float64(rounds * len(graphs))
		out[fmt.Sprintf("matching.mwpm_ns_k%d", k)] = float64(d.Nanoseconds()) / calls
		if k == 8 {
			out["matching.mwpm_bytes_k8"] = float64(after.TotalAlloc-before.TotalAlloc) / calls
			out["matching.mwpm_allocs_k8"] = float64(after.Mallocs-before.Mallocs) / calls
		}
	}
	return out, nil
}

// storePoints is the size of the segment the store probe builds.
const storePoints = 10000

func storeKey(i int) string { return fmt.Sprintf("%064x", i) }

// storeProbe times Commit, Lookup (resident and reloaded from its
// segment offset) and Open (replay of the whole segment) on a
// storePoints-point segment.
func storeProbe(dir string, spans *spanLog) (map[string]float64, error) {
	point := sweep.CachedPoint{Key: "fig5/rep-(5,1)/p1e-02/t3/mwpm", Shots: 2048, Errors: 311,
		BatchRates: []float64{0.15, 0.1484375, 0.15625, 0.140625, 0.1640625, 0.1484375, 0.15234375, 0.15625},
		Converged:  true}
	st, err := store.Open(dir, store.Options{MaxCached: storePoints})
	if err != nil {
		return nil, err
	}
	id := spans.begin("store.Commit", -1)
	for i := 0; i < storePoints; i++ {
		st.Commit(storeKey(i), point)
	}
	commit := spans.end(id, 0)
	hits := 0
	id = spans.begin("store.Lookup.resident", -1)
	for i := 0; i < storePoints; i++ {
		if _, ok := st.Lookup(storeKey(i)); ok {
			hits++
		}
	}
	resident := spans.end(id, 0)
	bytesPerPoint := float64(st.Stats().SegmentBytes) / storePoints
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Reopen with a small LRU and walk the keys in order: every lookup
	// misses the resident set and reloads from its segment offset.
	id = spans.begin("store.Open", -1)
	st, err = store.Open(dir, store.Options{MaxCached: 64})
	open := spans.end(id, 0)
	if err != nil {
		return nil, err
	}
	id = spans.begin("store.Lookup.reload", -1)
	for i := 0; i < storePoints; i++ {
		if _, ok := st.Lookup(storeKey(i)); ok {
			hits++
		}
	}
	reload := spans.end(id, 0)
	if err := st.Close(); err != nil {
		return nil, err
	}
	if hits != 2*storePoints {
		return nil, fmt.Errorf("bench: store probe found %d of %d committed points", hits, 2*storePoints)
	}
	return map[string]float64{
		"store.commit_us":               us(commit) / storePoints,
		"store.lookup_resident_us":      us(resident) / storePoints,
		"store.lookup_reload_us":        us(reload) / storePoints,
		"store.open_replay_ms":          ms(open),
		"store.segment_bytes_per_point": bytesPerPoint,
	}, nil
}

// sweepPoints is the size of the no-op sweeps the scheduler probe runs.
const sweepPoints = 2048

// sweepProbe times sweep.Run over sweepPoints points whose BatchRunner
// does nothing — what the scheduler, the controller and the result
// bookkeeping cost per engine handout — and the same sweep with every
// point already committed in a store, which is what a replayed
// campaign costs per point below the HTTP layer.
func sweepProbe(dir string, spans *spanLog) (map[string]float64, error) {
	var chunks int64
	points := make([]sweep.Point, sweepPoints)
	perPoint := make([]int64, sweepPoints)
	for i := range points {
		points[i] = sweep.Point{
			Key:  fmt.Sprintf("noop/%d", i),
			Hash: storeKey(i),
			Prepare: func() sweep.BatchRunner {
				return func(start, n int) sweep.Counts {
					perPoint[i]++
					return sweep.Counts{Shots: n}
				}
			},
		}
	}
	sc := sweep.Config{
		Policy:    sweep.Policy{Shots: 2048, Align: 512},
		Mechanism: sweep.Mechanism{Workers: childProcs, Control: controllerPolicy()},
	}
	id := spans.begin("sweep.Run.noop", -1)
	if _, err := sweep.Run(context.Background(), sc, points); err != nil {
		return nil, err
	}
	cold := spans.end(id, 0)
	for _, n := range perPoint {
		chunks += n
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	sc.Cache = st
	if _, err := sweep.Run(context.Background(), sc, points); err != nil { // commits every point
		return nil, err
	}
	replayed := 0
	sc.OnResult = func(r sweep.Result) {
		if r.Cached {
			replayed++
		}
	}
	id = spans.begin("sweep.Run.replay", -1)
	if _, err := sweep.Run(context.Background(), sc, points); err != nil {
		return nil, err
	}
	replay := spans.end(id, 0)
	if replayed != sweepPoints {
		return nil, fmt.Errorf("bench: sweep probe replayed %d of %d committed points", replayed, sweepPoints)
	}
	return map[string]float64{
		"sweep.overhead_us_per_chunk": us(cold) / float64(chunks),
		"sweep.replay_us_per_point":   us(replay) / sweepPoints,
	}, nil
}

// fabricProbe times the two per-point decisions of the campaign
// fabric: which node of a two-node ring owns a hash, and a lease claim.
func fabricProbe() map[string]float64 {
	ring := fabric.NewRing([]string{"127.0.0.1:8423", "127.0.0.1:8424"})
	const n = 200000
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = storeKey(i)
	}
	i := 0
	owner := nsPerCall(n, func() { ring.Owner(keys[i%len(keys)], nil); i++ })
	leases := fabric.NewLeaseTable()
	i = 0
	claim := nsPerCall(n, func() { leases.Claim(keys[i%len(keys)], "a", time.Minute); i++ })
	return map[string]float64{"fabric.ring_owner_ns": owner, "fabric.lease_claim_ns": claim}
}
