package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"time"

	"radqec/internal/client"
	"radqec/internal/stats"
)

// minTimedOps is the floor on timed ops per run, so a median exists
// even when one op outlasts the time budget.
const minTimedOps = 3

// setupSpawns is how many times a daemon workload's set-up (spawn
// radqecd, wait for /healthz) is repeated; setup_s is their median.
const setupSpawns = 9

// campaignSeed derives the i-th campaign seed of a run from -seed
// (splitmix64, kept below 2^53 so it survives any JSON number path).
func campaignSeed(base uint64, i int) uint64 {
	z := base + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) >> 11
}

// e2eResult is one end-to-end run of one workload, tracing off.
type e2eResult struct {
	Attempted, Failed int
	Failures          []string  // first few reasons, for the log
	OpMS              []float64 // latency of every timed op that passed
	SetupS            []float64 // each repetition of the set-up
	Shots             int64     // shots in the point records of the timed phase
	TimedWall         time.Duration
	CPUSeconds        float64 // children's user+sys
	CPUShots          int64   // shots those children streamed
	PeakRSSMiB        float64
}

func (r *e2eResult) fail(err error) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// metrics folds the run into the end-to-end metric values.
func (r *e2eResult) metrics(oracleGapPP float64) map[string]float64 {
	m := map[string]float64{
		"setup_s":       stats.Median(r.SetupS),
		"op_p50_ms":     stats.Median(r.OpMS),
		"peak_rss_mib":  r.PeakRSSMiB,
		"oracle_gap_pp": oracleGapPP,
	}
	if s := r.TimedWall.Seconds(); s > 0 {
		m["shots_per_s"] = float64(r.Shots) / s
	}
	if r.CPUShots > 0 {
		m["cpu_s_per_mshot"] = r.CPUSeconds / (float64(r.CPUShots) / 1e6)
	}
	return m
}

// e2eCLI runs a CLI workload: one discarded warm-up op (its wall time
// is the set-up), then ops back to back until budget has elapsed. Ops
// alternate between two campaign seeds, so every request recurs and
// every op has a reference table to be compared against.
func (h *harness) e2eCLI(w workload, seed uint64, budget time.Duration) *e2eResult {
	res := &e2eResult{}
	refs := references{}
	seeds := [2]uint64{campaignSeed(seed, 0), campaignSeed(seed, 1)}

	setupStart := time.Now()
	warm := h.runCLI(cliArgs(w, seeds[0]))
	res.SetupS = []float64{time.Since(setupStart).Seconds()}
	res.Attempted++
	if warm.Err != nil {
		res.fail(warm.Err)
	} else if err := refs.check(w.request(seeds[0]), warm.Digest); err != nil {
		res.fail(err)
	}

	start := time.Now()
	for i := 0; i < minTimedOps || time.Since(start) < budget; i++ {
		s := seeds[i%2]
		op := h.runCLI(cliArgs(w, s))
		res.Attempted++
		err := op.Err
		if err == nil {
			err = refs.check(w.request(s), op.Digest)
		}
		if err != nil {
			res.fail(err)
			continue
		}
		res.OpMS = append(res.OpMS, ms(op.Wall))
		res.Shots += op.Digest.Shots
		res.CPUShots += op.Digest.Shots
		res.CPUSeconds += op.Usage.CPUSeconds
		res.PeakRSSMiB = max(res.PeakRSSMiB, op.Usage.PeakRSSMiB)
	}
	res.TimedWall = time.Since(start)
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// submission is one daemon op: a campaign posted with the typed client
// and read to the end of its stream.
type submission struct {
	Latency time.Duration // before SubmitCampaign to the end of the stream
	Submit  time.Duration // SubmitCampaign: request written, headers back
	TTFB    time.Duration // first record after the headers
	Stream  time.Duration // first record to EOF
	Records []client.Record
	Err     error
}

func campaignRequest(w workload, seed uint64) client.CampaignRequest {
	return client.CampaignRequest{Experiment: w.Experiment, Shots: w.shots(), Seed: &seed}
}

// submit runs one daemon op. spans is nil in the end-to-end runs.
func submit(c *client.Client, w workload, seed uint64, spans *spanLog) submission {
	ctx, cancel := withTimeout()
	defer cancel()
	var sub submission
	root := spans.begin("daemon.op", -1)
	start := time.Now()
	id := spans.begin("client.SubmitCampaign", root)
	stream, err := c.SubmitCampaign(ctx, campaignRequest(w, seed), client.SubmitOptions{})
	spans.end(id, 0)
	sub.Submit = time.Since(start)
	if err != nil {
		sub.Err = err
		return sub
	}
	defer stream.Close()
	id = spans.begin("client.Next.first", root)
	for {
		rec, err := stream.Next()
		if len(sub.Records) == 0 {
			spans.end(id, 0)
			sub.TTFB = time.Since(start) - sub.Submit
			id = spans.begin("client.Next.rest", root)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			sub.Err = err
			break
		}
		sub.Records = append(sub.Records, rec)
	}
	spans.end(id, 0)
	sub.Latency = time.Since(start)
	sub.Stream = sub.Latency - sub.Submit - sub.TTFB
	spans.end(root, 0)
	return sub
}

// digest checks a finished submission's stream after the clock stopped.
func (s *submission) digest() (opDigest, error) {
	if s.Err != nil {
		return opDigest{}, s.Err
	}
	var d digester
	for _, rec := range s.Records {
		var v any
		switch {
		case rec.Point != nil:
			v = rec.Point
		case rec.Table != nil:
			v = rec.Table
		default:
			// The client drops the "type" tag of a terminal error record.
			v = struct {
				Type string `json:"type"`
				*client.ErrorRecord
			}{"error", rec.Err}
		}
		if err := d.addRecord(v); err != nil {
			return opDigest{}, err
		}
	}
	return d.finish()
}

// round sends one submission per client, all in flight together, and
// returns when every stream has ended (the barrier).
func round(c *client.Client, w workload, seeds [daemonClients]uint64, spans *spanLog) (subs [daemonClients]submission, wall time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			subs[i] = submit(c, w, seeds[i], spans)
		}()
	}
	wg.Wait()
	return subs, time.Since(start)
}

// daemonPhase drives one daemon through rounds of a phase.
type daemonPhase struct {
	w     workload
	c     *client.Client
	refs  references
	spans *spanLog
	// nextSeed numbers the campaign seeds handed out so far; the replay
	// phase draws from [0, nextSeed) instead of advancing it.
	base     uint64
	nextSeed int
	pick     *rand.Rand
}

// seeds chooses one round's campaign seeds for the phase.
func (p *daemonPhase) seeds(phase string) (out [daemonClients]uint64) {
	switch phase {
	case phaseCold:
		for i := range out {
			out[i] = campaignSeed(p.base, p.nextSeed)
			p.nextSeed++
		}
	case phaseDup:
		s := campaignSeed(p.base, p.nextSeed)
		p.nextSeed++
		for i := range out {
			out[i] = s
		}
	case phaseReplay:
		for i := range out {
			out[i] = campaignSeed(p.base, p.pick.IntN(p.nextSeed))
		}
	}
	return out
}

// run plays one round of phase and checks every stream against its
// request's reference; a submission that fails the check carries the
// reason in Err. It returns the shots the passing streams carried.
func (p *daemonPhase) run(phase string) (subs [daemonClients]submission, shots int64, wall time.Duration) {
	seeds := p.seeds(phase)
	subs, wall = round(p.c, p.w, seeds, p.spans)
	for i := range subs {
		d, err := subs[i].digest()
		if err == nil {
			err = p.refs.check(p.w.request(seeds[i]), d)
		}
		subs[i].Err = err
		if err == nil {
			shots += d.Shots
		}
	}
	return subs, shots, wall
}

// count books one round's ops; a timed round also contributes its
// latencies, shots and wall time.
func (r *e2eResult) count(subs []submission, shots int64, wall time.Duration, timed bool) {
	for _, s := range subs {
		r.Attempted++
		if s.Err != nil {
			r.fail(s.Err)
		} else if timed {
			r.OpMS = append(r.OpMS, ms(s.Latency))
		}
	}
	if timed {
		r.Shots += shots
		r.TimedWall += wall
	}
}

// e2eDaemon runs a daemon workload. Set-up is spawning radqecd and
// waiting for /healthz, repeated setupSpawns times on the store the
// timed daemon will open: empty for the cold and dup phases, holding
// replayFillSeeds committed campaigns for the replay phase — so
// replay-on-open shows. The timed daemon is a fresh process, so its
// rusage covers start-up, one warm-up round and the timed rounds only.
func (h *harness) e2eDaemon(w workload, seed uint64, budget time.Duration) (*e2eResult, error) {
	res := &e2eResult{}
	storeDir, err := h.tempDir("store")
	if err != nil {
		return nil, err
	}
	p := &daemonPhase{w: w, refs: references{}, base: seed,
		pick: rand.New(rand.NewPCG(seed, 0x5eed))}
	if w.Phase == phaseReplay {
		if err := h.fillStore(p, storeDir, replayFillSeeds, res); err != nil {
			return nil, err
		}
	}
	for i := 0; i < setupSpawns; i++ {
		d, err := h.startDaemon(storeDir)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, d.Ready.Seconds())
		if _, err := d.stop(); err != nil {
			return nil, err
		}
	}
	d, err := h.startDaemon(storeDir)
	if err != nil {
		return nil, err
	}
	p.c = client.New(d.Addr, nil)
	_, servedShots, _ := p.run(w.Phase) // warm-up round, discarded
	for start, ops := time.Now(), 0; ops < minTimedOps || time.Since(start) < budget; ops += daemonClients {
		subs, shots, wall := p.run(w.Phase)
		res.count(subs[:], shots, wall, true)
		servedShots += shots
	}
	// The byte-identical invariant across front ends: the CLI must
	// print the table the daemon streamed for the same request.
	probe := campaignSeed(seed, 0)
	res.Attempted++
	if op := h.runCLI(cliArgs(w, probe)); op.Err != nil {
		res.fail(op.Err)
	} else if err := p.refs.check(w.request(probe), op.Digest); err != nil {
		res.fail(fmt.Errorf("CLI vs daemon: %w", err))
	}
	u, err := d.stop()
	if err != nil {
		res.fail(err)
	}
	res.CPUSeconds, res.CPUShots, res.PeakRSSMiB = u.CPUSeconds, servedShots, u.PeakRSSMiB
	return res, nil
}

// fillStore commits n distinct campaigns into storeDir through a
// daemon of its own (cold rounds, untimed), then stops it. A campaign
// that fails while filling is a failed op.
func (h *harness) fillStore(p *daemonPhase, storeDir string, n int, res *e2eResult) error {
	d, err := h.startDaemon(storeDir)
	if err != nil {
		return err
	}
	p.c = client.New(d.Addr, nil)
	for p.nextSeed < n {
		subs, shots, wall := p.run(phaseCold)
		res.count(subs[:], shots, wall, false)
	}
	_, err = d.stop()
	return err
}
