package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"radqec/internal/client"
	"radqec/internal/stats"
)

// serviceRounds is how many rounds of each phase the traced run plays
// against one live daemon. Every traced run plays all three phases, in
// order, so every service-layer metric has a value on every workload;
// a daemon workload plays its own phase at full size (the replay
// workload fills the store past the LRU, as its end-to-end run does).
type serviceRounds struct{ cold, dup, replay int }

// replayRounds gives 200 replays, so the p95 has ten samples beyond it.
const replayRounds = 100

func roundsFor(w workload) serviceRounds {
	switch w.Phase {
	case phaseCold:
		return serviceRounds{cold: 12, dup: 2, replay: replayRounds}
	case phaseDup:
		return serviceRounds{cold: 2, dup: 12, replay: replayRounds}
	case phaseReplay:
		return serviceRounds{cold: replayFillSeeds / daemonClients, dup: 2, replay: replayRounds}
	}
	return serviceRounds{cold: 4, dup: 4, replay: replayRounds}
}

// serviceWorkload is the campaign the service probe submits: the
// daemon workloads' own request.
var serviceWorkload, _ = findWorkload("daemon-cold")

// scrape reads one counter off the daemon's /metrics page.
func scrape(addr, name string) (value float64, elapsed time.Duration, err error) {
	start := time.Now()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	elapsed = time.Since(start)
	if err != nil {
		return 0, elapsed, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			value, err = strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return value, elapsed, err
		}
	}
	return 0, elapsed, fmt.Errorf("bench: /metrics has no series %s", name)
}

// countingTransport counts response body bytes, for bytes-per-campaign.
type countingTransport struct {
	n atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// serviceResult is what the service probe measured and checked.
type serviceResult struct {
	Metrics   map[string]float64
	Campaigns int      // daemon ops attempted
	Failures  []string // ops or invariants that failed
}

// serviceProbe spawns radqecd on an empty store and plays cold, dup
// and replay rounds through the typed client with spans around
// client.SubmitCampaign and CampaignStream.Next, reading /metrics and
// the cache statistics between phases. A replay that recomputed
// points, or a stream that did not match its reference, is a failure.
func (h *harness) serviceProbe(w workload, seed uint64, spans *spanLog) (*serviceResult, error) {
	storeDir, err := h.tempDir("svc-store")
	if err != nil {
		return nil, err
	}
	d, err := h.startDaemon(storeDir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	counting := &countingTransport{}
	c := client.New(d.Addr, &http.Client{Transport: counting})
	sw := serviceWorkload
	p := &daemonPhase{w: sw, c: c, refs: references{}, spans: spans, base: seed,
		pick: rand.New(rand.NewPCG(seed, 0x5eed))}
	var failures []string
	var submitMS, ttfbMS, streamMS, replayMS []float64
	var campaigns int
	var campaignBytes int64
	play := func(phase string, rounds int) {
		bytesBefore := counting.n.Load()
		defer func() { campaignBytes += counting.n.Load() - bytesBefore }()
		for r := 0; r < rounds; r++ {
			subs, _, _ := p.run(phase)
			for _, s := range subs {
				campaigns++
				if s.Err != nil {
					failures = append(failures, s.Err.Error())
					continue
				}
				submitMS = append(submitMS, ms(s.Submit))
				ttfbMS = append(ttfbMS, ms(s.TTFB))
				streamMS = append(streamMS, ms(s.Stream))
				if phase == phaseReplay {
					replayMS = append(replayMS, ms(s.Latency))
				}
			}
		}
	}
	const computedSeries = "radqecd_points_computed_total"
	rounds := roundsFor(w)
	play(phaseCold, rounds.cold)

	// The byte-identical invariant, daemon against in-process: the
	// first cold campaign's stream must equal exp.Run's for the same
	// request.
	probe := campaignSeed(seed, 0)
	ref, err := runExp(sw, expConfig(sw, probe, childProcs), false, spans)
	if err != nil {
		return nil, err
	}
	if err := p.refs.check(sw.request(probe), ref.Digest); err != nil {
		failures = append(failures, "in-process vs daemon: "+err.Error())
	}
	pointsPerCampaign := float64(ref.Points)

	beforeDup, _, err := scrape(d.Addr, computedSeries)
	if err != nil {
		return nil, err
	}
	play(phaseDup, rounds.dup)
	beforeReplay, _, err := scrape(d.Addr, computedSeries)
	if err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout()
	defer cancel()
	statsBefore, err := c.CacheStats(ctx)
	if err != nil {
		return nil, err
	}
	play(phaseReplay, rounds.replay)
	statsAfter, err := c.CacheStats(ctx)
	if err != nil {
		return nil, err
	}
	computed, scrapeTime, err := scrape(d.Addr, computedSeries)
	if err != nil {
		return nil, err
	}
	if computed != beforeReplay {
		failures = append(failures, fmt.Sprintf("%s rose from %.0f to %.0f during replay rounds", computedSeries, beforeReplay, computed))
	}
	p95, err := tailPercentile(replayMS, 95)
	if err != nil {
		failures = append(failures, "replay p95: "+err.Error())
	}

	// The fabric's two per-point calls, against the live daemon: a
	// lookup of a committed hash and a lease claim on a free one.
	entries, err := c.CacheEntries(ctx)
	if err != nil || len(entries) == 0 {
		return nil, fmt.Errorf("bench: daemon lists no committed entries: %v", err)
	}
	const calls = 200
	i := 0
	lookup := nsPerCall(calls, func() {
		if _, ok, err := c.LookupPoint(ctx, entries[i%len(entries)].Hash, 0); err != nil || !ok {
			failures = append(failures, fmt.Sprintf("LookupPoint of a committed hash: ok=%v err=%v", ok, err))
		}
		i++
	})
	i = 0
	claim := nsPerCall(calls, func() {
		if cl, err := c.ClaimPoint(ctx, storeKey(i), "bench", time.Second); err != nil || cl.Status != client.ClaimGranted {
			failures = append(failures, fmt.Sprintf("ClaimPoint of a free hash: %+v err=%v", cl, err))
		}
		i++
	})

	dupRequested := float64(rounds.dup*daemonClients) * pointsPerCampaign
	lookups := float64(statsAfter.Hits-statsBefore.Hits) + float64(statsAfter.Misses-statsBefore.Misses)
	return &serviceResult{Campaigns: campaigns, Failures: failures, Metrics: map[string]float64{
		"cmd.daemon_ready_ms":            ms(d.Ready),
		"client.submit_ms":               stats.Median(submitMS),
		"client.ttfb_ms":                 stats.Median(ttfbMS),
		"client.stream_ms":               stats.Median(streamMS),
		"server.replay_p95_ms":           p95,
		"server.bytes_per_campaign":      ratio(float64(campaignBytes), float64(campaigns)),
		"server.points_computed":         computed,
		"server.metrics_scrape_ms":       ms(scrapeTime),
		"sweep.singleflight_saved_share": 1 - ratio(beforeReplay-beforeDup, dupRequested),
		"store.hit_share":                ratio(float64(statsAfter.Hits-statsBefore.Hits), lookups),
		"store.resident_share":           ratio(float64(statsAfter.Resident), float64(statsAfter.Commits)),
		"client.lookup_point_ms":         lookup / 1e6,
		"client.claim_point_ms":          claim / 1e6,
	}}, nil
}
