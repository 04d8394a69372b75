package exp

import (
	"fmt"

	"radqec/internal/arch"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/stats"
	"radqec/internal/sweep"
)

// Code family names for NewSimulator.
const (
	FamilyRepetition = "repetition"
	FamilyXXZZ       = "xxzz"
)

// Simulator is the library façade: it estimates post-decoding logical
// error rates for one code on one hardware topology, one point per
// call. It builds nothing of its own — the code and its routed circuit
// come from the registry, and each call's event and seed from the same
// helpers the figures use — so a façade point counts exactly what the
// figure point with the same spec counts.
//
// Of its Config it reads Shots, Seed, P, NS, Rounds, Engine and
// Workers, and it decodes with the code's MWPM decoder. A call runs its
// point outside any scheduler, fixed-shot, fanned over Workers
// goroutines (0 means GOMAXPROCS; see core.NewEngineRunner); the sweep
// fields (CI, Cache, Scheduler, Telemetry and the rest) are not used.
type Simulator struct {
	cfg  Config
	prep *prepared
}

// NewSimulator resolves the code family (FamilyRepetition or
// FamilyXXZZ; the repetition family ignores dX) at cfg.Rounds through
// the registry and routes it onto the named topology (see arch.ByName),
// sized to fit the code. Unset Config fields take Config.Defaults, and
// a config outside the domain is Config.Validate's error; unknown
// families and topologies are errors too.
func NewSimulator(cfg Config, family string, dZ, dX int, topology string) (*Simulator, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var (
		code *qec.Code
		err  error
	)
	switch family {
	case FamilyRepetition:
		code, err = cfg.repetition(dZ)
	case FamilyXXZZ:
		code, err = cfg.xxzz(dZ, dX)
	default:
		return nil, fmt.Errorf("exp: unknown code family %q", family)
	}
	if err != nil {
		return nil, err
	}
	topo, err := arch.ByName(topology, code.NumQubits())
	if err != nil {
		return nil, err
	}
	p, err := prepare(code, topo)
	if err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg, prep: p}, nil
}

// Code returns the underlying code instance.
func (s *Simulator) Code() *qec.Code { return s.prep.code }

// Transpiled returns the routed circuit and layout.
func (s *Simulator) Transpiled() *arch.Transpiled { return s.prep.tr }

// NumPhysicalQubits returns the size of the device.
func (s *Simulator) NumPhysicalQubits() int { return s.prep.tr.Circuit.NumQubits }

// UsedQubits returns the physical qubits hosting circuit activity — the
// meaningful strike roots.
func (s *Simulator) UsedQubits() []int { return s.prep.usedRoots() }

// run measures one spec on the configured engine.
func (s *Simulator) run(sp pointSpec) sweep.Result {
	shots, errors := sp.runner(s.cfg.Engine, s.prep.code.DecodeTile, s.cfg.Workers)(0, s.cfg.Shots)
	lo, hi := stats.WilsonCI(errors, shots)
	return sweep.Result{
		Counts: sweep.Counts{Shots: shots, Errors: errors},
		CILo:   lo, CIHi: hi,
		Batches: 1, Converged: true,
	}
}

// checkQubit panics unless q is a physical qubit of the device.
func (s *Simulator) checkQubit(what string, q int) {
	if q < 0 || q >= s.NumPhysicalQubits() {
		panic(fmt.Sprintf("exp: %s %d out of range", what, q))
	}
}

// Clean estimates the logical error rate with intrinsic noise only.
func (s *Simulator) Clean() sweep.Result {
	return s.run(s.prep.spec("", s.cfg, noise.NoRadiation(s.NumPhysicalQubits()), s.cfg.Seed))
}

// Strike simulates a full radiation event rooted at the given physical
// qubit: the fault spreads spatially with S(d) and decays over the NS
// temporal samples of T̂(t). Result k is temporal sample k (sample 0 is
// the moment of impact, root probability 100%).
func (s *Simulator) Strike(root int) []sweep.Result {
	s.checkQubit("strike root", root)
	specs := s.prep.evolutionSpecs("", s.cfg, root, true, s.cfg.Seed)
	out := make([]sweep.Result, len(specs))
	for k, sp := range specs {
		out[k] = s.run(sp)
	}
	return out
}

// StrikeAtImpact estimates the rate at the moment of impact only
// (temporal sample 0, root probability 100%).
func (s *Simulator) StrikeAtImpact(root int, spread bool) sweep.Result {
	s.checkQubit("strike root", root)
	return s.run(s.prep.spec("", s.cfg, s.prep.strikeAt(root, 1, spread), s.cfg.Seed))
}

// Erase resets every listed physical qubit with probability one after
// each gate — the correlated "hypernode" fault of Figure 7.
func (s *Simulator) Erase(members []int) sweep.Result {
	for _, q := range members {
		s.checkQubit("erase target", q)
	}
	return s.run(s.prep.spec("", s.cfg, subgraphEvent(s.NumPhysicalQubits(), members, 1), s.cfg.Seed))
}
