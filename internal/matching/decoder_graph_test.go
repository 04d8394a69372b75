package matching

import (
	"testing"

	"radqec/internal/rng"
)

// memoryDeepDefects is the defect-count histogram of the matcher calls
// the memory-deep workload makes: memoryDeepDefects[k] of the 39 845
// blossom calls of `radqec -seed 1 memory` (the MWPM miss tier, rep-5,
// rep-9 and xxzz-(3,3) at rounds 2…9) had k defects. Mean 8.3, max 36.
var memoryDeepDefects = [...]int{
	0, 245, 1641, 2044, 5440, 3347, 5055, 3235, 3731, 2433, // k = 0…9
	2396, 1723, 1617, 1211, 1047, 942, 764, 684, 493, 467, // k = 10…19
	412, 271, 197, 142, 109, 75, 49, 33, 20, 9, // k = 20…29
	7, 2, 2, 0, 0, 1, 1, // k = 30…36
}

// maxDecoderDefects is the largest defect count memory-deep matches.
const maxDecoderDefects = len(memoryDeepDefects) - 1

// drawDefectCount draws k from memoryDeepDefects.
func drawDefectCount(src *rng.Source) int {
	total := 0
	for _, n := range memoryDeepDefects {
		total += n
	}
	r := src.Intn(total)
	for k, n := range memoryDeepDefects {
		if r < n {
			return k
		}
		r -= n
	}
	return maxDecoderDefects
}

// Geometry of repDecoderGraph: a distance-9 repetition code (8
// stabilizers) over 10 detection layers, memory-deep's deepest model.
const (
	repStabs  = 8
	repLayers = 10
)

// repDecoderGraph draws the decoder graph of k distinct defects on the
// unit-weight space-time geometry of repStabs × repLayers detectors:
// defect distance |Δs|+|Δt|, boundary distance to the nearer code end,
// every pair connected. With micro set the edges come in
// bench/micro.go's order, else in qec's matchDefects order.
func repDecoderGraph(src *rng.Source, k int, micro bool) []Edge {
	type det struct{ s, t int }
	seen := map[det]bool{}
	defects := make([]det, 0, k)
	for len(defects) < k {
		d := det{src.Intn(repStabs), src.Intn(repLayers)}
		if !seen[d] {
			seen[d] = true
			defects = append(defects, d)
		}
	}
	abs := func(x int) int64 {
		if x < 0 {
			return int64(-x)
		}
		return int64(x)
	}
	dist := func(i, j int) int64 {
		return (abs(defects[i].s-defects[j].s) + abs(defects[i].t-defects[j].t)) << 16
	}
	bdist := func(i int) int64 {
		return int64(min(defects[i].s+1, repStabs-defects[i].s)) << 16
	}
	var edges []Edge
	for i := 0; i < k; i++ {
		if micro {
			for j := i + 1; j < k; j++ {
				edges = append(edges, Edge{I: i, J: j, W: dist(i, j)}, Edge{I: k + i, J: k + j})
			}
			edges = append(edges, Edge{I: i, J: k + i, W: bdist(i)})
			continue
		}
		for j := i + 1; j < k; j++ {
			edges = append(edges, Edge{I: i, J: j, W: dist(i, j)})
		}
		edges = append(edges, Edge{I: i, J: k + i, W: bdist(i)})
		for j := i + 1; j < k; j++ {
			edges = append(edges, Edge{I: k + i, J: k + j})
		}
	}
	return edges
}

// BenchmarkDecoderGraphMix times the decoder's matcher call on a fixed
// pool of repDecoderGraph graphs whose defect counts follow
// memoryDeepDefects, so ns/op is the mean cost of one memory-deep miss.
//
//	go test -run '^$' -bench DecoderGraphMix -count 5 ./internal/matching
func BenchmarkDecoderGraphMix(b *testing.B) {
	src := rng.New(26)
	type graph struct {
		n     int
		edges []Edge
	}
	pool := make([]graph, 2048)
	defects := 0
	for i := range pool {
		k := drawDefectCount(src)
		pool[i] = graph{2 * k, repDecoderGraph(src, k, i%2 == 1)}
		defects += k
	}
	var ws Workspace
	for _, g := range pool {
		if _, err := ws.MinWeightPerfectMatching(g.n, g.edges); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := pool[i%len(pool)]
		if _, err := ws.MinWeightPerfectMatching(g.n, g.edges); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(defects)/float64(len(pool)), "defects/op")
}

// TestImageReplayFiresOnDecoderGraphs pins that the decoder's graphs
// take the replay — ⌊k/2⌋ image-pairing stages at every defect count
// memory-deep reaches, in both edge orders — so the fast path cannot go
// dead unnoticed. qec's TestMatchDefectsGraphHasImagePrefix pins that
// matchDefects builds graphs of this shape.
func TestImageReplayFiresOnDecoderGraphs(t *testing.T) {
	src := rng.New(5)
	var ws Workspace
	for k := 1; k <= maxDecoderDefects; k++ {
		for _, micro := range []bool{false, true} {
			for _, edges := range [][]Edge{decoderGraph(src, k, micro), repDecoderGraph(src, k, micro)} {
				if _, err := ws.MinWeightPerfectMatching(2*k, edges); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if ws.replayed != k/2 {
					t.Fatalf("k=%d, micro=%v: replayed %d stages, want %d", k, micro, ws.replayed, k/2)
				}
			}
		}
	}
}

// TestImageReplayNeedsItsPremise breaks the replay's premise three
// ways; each graph must run from stage 0 and still match the reference.
func TestImageReplayNeedsItsPremise(t *testing.T) {
	const k = 8
	find := func(edges []Edge, i, j int) int {
		for x, e := range edges {
			if e.I == i && e.J == j {
				return x
			}
		}
		t.Fatalf("no edge %d-%d", i, j)
		return -1
	}
	mutations := []struct {
		name   string
		mutate func([]Edge)
	}{
		// A negative weight raises the negated graph's maximum weight
		// above the images' 0: their edges start with slack.
		{"negative weight", func(edges []Edge) { edges[find(edges, 0, 1)].W = -1 << 16 }},
		{"non-zero image edge", func(edges []Edge) { edges[find(edges, k, k+1)].W = 1 }},
		// The top image meets image k+1 before image k.
		{"permuted image edge", func(edges []Edge) {
			a, b := find(edges, k, 2*k-1), find(edges, k+1, 2*k-1)
			edges[a], edges[b] = edges[b], edges[a]
		}},
	}
	src := rng.New(9)
	var ws Workspace
	for _, m := range mutations {
		for g := 0; g < 50; g++ {
			edges := repDecoderGraph(src, k, g%2 == 1)
			m.mutate(edges)
			checkDecoderGraph(t, &ws, 2*k, edges)
			if ws.replayed != 0 {
				t.Fatalf("%s: replayed %d stages, want 0", m.name, ws.replayed)
			}
		}
	}
}

// fuzzDecoderGraph decodes fuzz bytes into a decoder-shaped graph: k =
// 1 + data[0]%36 defects, data[1]&1 picks bench/micro.go's edge order
// over qec's, then one byte per defect pair and per boundary edge in
// edge order, cycling when the data runs out: 255 drops the edge,
// anything else weighs it (b%8) << 16. Image edges weigh 0.
func fuzzDecoderGraph(data []byte) (k int, edges []Edge) {
	if len(data) < 2 {
		return 0, nil
	}
	k = 1 + int(data[0])%maxDecoderDefects
	micro := data[1]&1 != 0
	rest, next := data[2:], 0
	add := func(i, j int) {
		w := int64(1) << 16
		if len(rest) > 0 {
			b := rest[next%len(rest)]
			next++
			if b == 255 {
				return
			}
			w = int64(b%8) << 16
		}
		edges = append(edges, Edge{I: i, J: j, W: w})
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			add(i, j)
			if micro {
				edges = append(edges, Edge{I: k + i, J: k + j})
			}
		}
		add(i, k+i)
		for j := i + 1; j < k && !micro; j++ {
			edges = append(edges, Edge{I: k + i, J: k + j})
		}
	}
	return k, edges
}

// FuzzDecoderGraphMatchesReference searches decoder-shaped graphs out to
// memory-deep's 36 defects — either edge order, disconnected pairs,
// zero weights — for one on which the workspace and the frozen
// reference disagree. FuzzWorkspaceMatchesReference covers general
// graphs but stops at 26 vertices.
func FuzzDecoderGraphMatchesReference(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 3})
	f.Add([]byte{16, 1, 0, 255, 1, 1, 2})
	f.Add([]byte{35, 0, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{35, 1, 255, 255, 255, 0})
	var ws Workspace
	f.Fuzz(func(t *testing.T, data []byte) {
		k, edges := fuzzDecoderGraph(data)
		checkDecoderGraph(t, &ws, 2*k, edges)
	})
}
