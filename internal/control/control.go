// Package control holds what is left of the removed scoring controller:
// the Policy struct the frozen bench/ harness constructs. The sweep
// scheduler has one policy and reads none of it.
package control

// Policy is ignored wherever it is accepted (sweep.Mechanism.Control,
// exp.Config.Control). A benchmark-archetype PR that edits bench/ drops
// it.
type Policy struct {
	Enabled    bool
	Dwell      int
	Hysteresis float64
}
