// Package faultinject is the failpoint harness of the campaign
// service: named injection sites compiled into the production paths of
// the store, the sweep workers and the HTTP streamer, armed by tests
// (Enable/Disable) or operators (the RADQEC_FAILPOINTS environment
// variable) to rehearse the faults the robustness layer claims to
// survive — write errors, slow disks, worker panics, stalled and
// vanishing clients.
//
// A disarmed harness costs one atomic load per site, so the
// instrumented hot paths stay free in production. Armed failpoints
// fire according to a small spec grammar:
//
//	mode[(arg)][*count][@skip]
//
//	error          fail every evaluation
//	error*1        fail exactly once, then disarm
//	error*2@3      skip 3 evaluations, then fail twice
//	sleep(50ms)    sleep 50ms on every evaluation
//	panic*1        panic on the next evaluation
//
// The environment form is a semicolon-separated list of name=spec
// pairs, e.g.
//
//	RADQEC_FAILPOINTS='store.write.error=error*1;sweep.worker.panic=panic*1@3'
//
// parsed once at process start; a malformed value or an unknown
// failpoint name panics immediately — a chaos rehearsal with a typo'd
// fault plan should fail loudly, not silently run fault-free.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The failpoint sites compiled into the service. Each name is the
// Eval argument at exactly one call site.
const (
	// StoreWriteError fails a segment append (and the degraded-store
	// recovery probe) in internal/store.
	StoreWriteError = "store.write.error"
	// StoreWriteSlow delays a segment append in internal/store
	// (sleep mode; an error spec here fails the append like
	// StoreWriteError).
	StoreWriteSlow = "store.write.slow"
	// WorkerPanic panics inside a sweep worker's engine chunk — the
	// fault the scheduler's recover boundary isolates.
	WorkerPanic = "sweep.worker.panic"
	// StreamStall delays one campaign-stream record write in
	// internal/server (sleep mode), simulating a stalled client.
	StreamStall = "server.stream.stall"
	// StreamDrop fails one campaign-stream record write in
	// internal/server, simulating a client that vanished mid-stream.
	StreamDrop = "server.stream.drop"
	// PeerSubmitError fails a fabric fan-out submission in
	// internal/fabric — the peer-down-at-submit fault.
	PeerSubmitError = "fabric.peer.submit.error"
	// PeerLookupError fails a fabric remote point lookup in
	// internal/fabric, making the owner shard look unreachable so the
	// failure detector and the takeover path fire.
	PeerLookupError = "fabric.peer.lookup.error"
)

// sites lists every failpoint name Enable accepts: a name no site
// evaluates would arm nothing.
var sites = []string{
	StoreWriteError, StoreWriteSlow, WorkerPanic, StreamStall, StreamDrop,
	PeerSubmitError, PeerLookupError,
}

// EnvVar names the environment variable carrying a fault plan.
const EnvVar = "RADQEC_FAILPOINTS"

// ErrInjected is the sentinel all error-mode failpoints return,
// wrapped with the failpoint name; errors.Is distinguishes injected
// faults from organic ones in tests and logs.
var ErrInjected = errors.New("faultinject: injected fault")

// failpoint is one armed site's firing plan.
type failpoint struct {
	mode  string // "error", "panic" or "sleep"
	sleep time.Duration
	count int64 // remaining fires; -1 = unlimited
	skip  int64 // evaluations to swallow before the first fire
	hits  int64 // times the site actually fired
}

var (
	// armed counts registered failpoints; the zero fast path is the
	// only thing Eval touches in production.
	armed atomic.Int64

	mu     sync.Mutex
	points = map[string]*failpoint{}
)

func init() {
	if err := LoadEnv(); err != nil {
		panic(err)
	}
}

// LoadEnv arms every failpoint named in RADQEC_FAILPOINTS. It returns
// an error on a malformed plan (init panics on it; tests calling
// LoadEnv directly can assert instead).
func LoadEnv() error {
	plan := os.Getenv(EnvVar)
	if plan == "" {
		return nil
	}
	for _, pair := range strings.Split(plan, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, spec, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("faultinject: %s: %q is not name=spec", EnvVar, pair)
		}
		if err := Enable(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return fmt.Errorf("faultinject: %s: %w", EnvVar, err)
		}
	}
	return nil
}

// parseSpec compiles one mode[(arg)][*count][@skip] spec.
func parseSpec(spec string) (failpoint, error) {
	fp := failpoint{count: -1}
	rest := spec
	if at := strings.LastIndexByte(rest, '@'); at >= 0 {
		n, err := strconv.ParseInt(rest[at+1:], 10, 64)
		if err != nil || n < 0 {
			return fp, fmt.Errorf("bad skip in %q", spec)
		}
		fp.skip = n
		rest = rest[:at]
	}
	if star := strings.LastIndexByte(rest, '*'); star >= 0 {
		n, err := strconv.ParseInt(rest[star+1:], 10, 64)
		if err != nil || n < 1 {
			return fp, fmt.Errorf("bad count in %q", spec)
		}
		fp.count = n
		rest = rest[:star]
	}
	mode, arg := rest, ""
	if open := strings.IndexByte(rest, '('); open >= 0 {
		if !strings.HasSuffix(rest, ")") {
			return fp, fmt.Errorf("unclosed argument in %q", spec)
		}
		mode, arg = rest[:open], rest[open+1:len(rest)-1]
	}
	fp.mode = mode
	switch mode {
	case "error", "panic":
		if arg != "" {
			return fp, fmt.Errorf("mode %s takes no argument in %q", mode, spec)
		}
	case "sleep":
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return fp, fmt.Errorf("bad sleep duration in %q", spec)
		}
		fp.sleep = d
	default:
		return fp, fmt.Errorf("unknown mode %q in %q (want error, panic or sleep)", mode, spec)
	}
	return fp, nil
}

// Enable arms (or re-arms) a failpoint with the given spec. The name
// must be one of the site constants above: a typo'd name is an error,
// not a plan that silently runs fault-free.
func Enable(name, spec string) error {
	if !slices.Contains(sites, name) {
		return fmt.Errorf("faultinject: unknown failpoint %q (want one of %s)", name, strings.Join(sites, ", "))
	}
	fp, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("faultinject: %s: %w", name, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &fp
	return nil
}

// Disable disarms one failpoint; a name that was never armed is a
// no-op.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// Reset disarms every failpoint — the test-teardown hook.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int64(len(points)))
	points = map[string]*failpoint{}
}

// Armed lists the currently armed failpoint names, sorted.
func Armed() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for name := range points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Hits reports how many times the named failpoint has fired since it
// was armed.
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if fp, ok := points[name]; ok {
		return fp.hits
	}
	return 0
}

// Eval is the injection site hook: a no-op (one atomic load) while the
// harness is disarmed. An armed site consumes its skip budget, then
// fires per its mode — returning a wrapped ErrInjected, sleeping, or
// panicking — until its count is spent, after which it goes quiet
// (still registered, so Hits stays queryable).
func Eval(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	fp, ok := points[name]
	if !ok || fp.count == 0 {
		mu.Unlock()
		return nil
	}
	if fp.skip > 0 {
		fp.skip--
		mu.Unlock()
		return nil
	}
	if fp.count > 0 {
		fp.count--
	}
	fp.hits++
	mode, sleep := fp.mode, fp.sleep
	mu.Unlock()
	switch mode {
	case "sleep":
		time.Sleep(sleep)
		return nil
	case "panic":
		panic(fmt.Sprintf("faultinject: failpoint %s fired", name))
	default:
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
}
