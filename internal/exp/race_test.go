//go:build race

package exp

// raceEnabled: the race detector slows the tableau engine tenfold, so
// the cross-engine distribution tests run a tenth of their shots there
// (their z-score bounds do not depend on the shot count), and the
// golden test leaves the tableau engine's table to the plain run.
const raceEnabled = true
