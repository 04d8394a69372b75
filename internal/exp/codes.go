package exp

import (
	"sync"

	"radqec/internal/arch"
	"radqec/internal/qec"
)

// preparedCap bounds the code registry: at most this many codes and at
// most this many prepared circuits stay resident. It is a constant, not
// a knob, because the one unbounded input is the client's `rounds`
// (every value is a new code) and the realistic working set is small
// and known: every experiment at default rounds, one after another,
// leaves 29 codes and 41 prepared circuits. Past the cap the least
// recently used code goes, with its circuits, and merely re-learns when
// asked for again. LRU rather than a reset at the cap, so that a client
// walking `rounds` upward costs the hot codes (rep-(5,1) and xxzz-(3,3)
// at two rounds carry seven experiments) nothing.
//
// Retained per code: the circuit, the DEM once a decode compiled it
// (stabs² · (rounds+1) · 8 B of distances) and three parity memos (one
// per decoder) that start empty and top out at 786 KB each, so
// 64 · 3 · 786 KB ≈ 151 MB is the ceiling on memo bytes, reached only
// if every resident code met some 24 576 distinct syndromes under all
// three decoders; the 29 codes
// above hold 150 k syndromes in 6.9 MB of tables. Per prepared circuit:
// the routed circuit, its compiled reference, the n² all-pairs
// distances (34 KB on Brooklyn's 65 qubits) and the circuit literal.
const preparedCap = 64

// codeKey names what a code is a pure function of.
type codeKey struct {
	xxzz           bool
	dZ, dX, rounds int
}

func (k codeKey) build() (*qec.Code, error) {
	if k.xxzz {
		return qec.NewXXZZRounds(k.dZ, k.dX, k.rounds)
	}
	return qec.NewRepetitionRounds(k.dZ, k.rounds)
}

// codeEntry is one resident code with the circuits prepared from it,
// by topology name (a name determines its topology: package arch has
// no two constructors sharing one).
type codeEntry struct {
	key   codeKey
	code  *qec.Code
	used  uint64 // registry clock at the last lookup
	preps map[string]*preparedEntry
}

// preparedEntry builds its circuit once, outside the registry lock: a
// transpile takes milliseconds on the paper's devices and as long as
// the client's `rounds` makes it, and must not stall other campaigns'
// lookups.
type preparedEntry struct {
	once sync.Once
	p    *prepared
	err  error
}

// registry is the process-wide owner of everything that is a pure
// function of (family, dZ, dX, rounds) — the *qec.Code with its DEM and
// its three parity memos — and of (that code, topology) — the *prepared with
// its routed circuit, compiled reference and circuit literal. The CLI
// and the daemon resolve every code and every prepare through it, so
// what one campaign's decoder learned the next campaign finds. Tables
// cannot tell: a memo stores the matcher's own answer per syndrome.
type registry struct {
	mu       sync.Mutex
	codes    map[codeKey]*codeEntry
	byCode   map[*qec.Code]*codeEntry
	clock    uint64
	prepared int // sum of len(preps) over codes

	hits, misses, evictions int64
	// retired holds the decode counters of evicted codes, so the totals
	// RegistryStats reports never step back. Decodes a campaign still
	// runs on a code after its eviction go uncounted.
	retired qec.DecoderCounters
}

var codeRegistry = &registry{
	codes:  map[codeKey]*codeEntry{},
	byCode: map[*qec.Code]*codeEntry{},
}

// code returns the resident code for k, building it on first use. A
// code is built under the lock: that is circuit emission only (tens of
// microseconds; the DEM compiles on the first decode).
func (r *registry) code(k codeKey) (*qec.Code, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.codes[k]
	if e == nil {
		code, err := k.build()
		if err != nil {
			return nil, err
		}
		e = &codeEntry{key: k, code: code, preps: map[string]*preparedEntry{}}
		r.codes[k] = e
		r.byCode[code] = e
	}
	r.touch(e)
	return e.code, nil
}

// prepare returns the code's circuit routed onto topo, transpiling it
// on first use. A code the registry does not hold — a test's own, or
// one evicted since it was handed out — is prepared and not kept.
func (r *registry) prepare(code *qec.Code, topo arch.Topology) (*prepared, error) {
	r.mu.Lock()
	e := r.byCode[code]
	if e == nil {
		r.misses++
		r.mu.Unlock()
		return newPrepared(code, topo)
	}
	pe := e.preps[topo.Name]
	if pe == nil {
		r.misses++
		pe = new(preparedEntry)
		e.preps[topo.Name] = pe
		r.prepared++
	} else {
		r.hits++
	}
	r.touch(e)
	r.mu.Unlock()
	pe.once.Do(func() { pe.p, pe.err = newPrepared(code, topo) })
	return pe.p, pe.err
}

// touch stamps e most recently used and evicts least recently used
// codes while either count is over the cap; e, carrying the newest
// stamp, is the last to go.
func (r *registry) touch(e *codeEntry) {
	r.clock++
	e.used = r.clock
	for len(r.codes) > preparedCap || r.prepared > preparedCap {
		var lru *codeEntry
		for _, c := range r.codes {
			if lru == nil || c.used < lru.used {
				lru = c
			}
		}
		delete(r.codes, lru.key)
		delete(r.byCode, lru.code)
		r.prepared -= len(lru.preps)
		r.evictions++
		d := lru.code.DecoderCounters()
		r.retired.MatcherCalls += d.MatcherCalls
		r.retired.MatchedDefects += d.MatchedDefects
		r.retired.TriggeredLanes += d.TriggeredLanes
	}
}

// RegistryStats is a snapshot of the code registry: the prepare
// traffic and the decode-tier counters summed over every code the
// registry has held.
type RegistryStats struct {
	// Hits and Misses count prepares served from the registry and
	// prepares that had to transpile; Evictions counts codes dropped at
	// the cap (each with its prepared circuits).
	Hits, Misses, Evictions int64
	// Decoder sums the codes' tile-decode counters: MatcherCalls over
	// TriggeredLanes is the memo miss rate, which falls campaign over
	// campaign as the memos warm; MatchedDefects over MatcherCalls is the
	// mean defect count per call. MemoEntries covers resident codes only.
	Decoder qec.DecoderCounters
}

// Registry reports the process-wide code registry's counters.
func Registry() RegistryStats {
	r := codeRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RegistryStats{Hits: r.hits, Misses: r.misses, Evictions: r.evictions, Decoder: r.retired}
	for _, e := range r.codes {
		d := e.code.DecoderCounters()
		st.Decoder.MatcherCalls += d.MatcherCalls
		st.Decoder.MatchedDefects += d.MatchedDefects
		st.Decoder.TriggeredLanes += d.TriggeredLanes
		st.Decoder.MemoEntries += d.MemoEntries
	}
	return st
}
