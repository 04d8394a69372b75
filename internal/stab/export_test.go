package stab

// CompileCount reports how many times Compile has run in this process.
func CompileCount() int64 { return compiles.Load() }

// MaxStruck is the bound on struck references one circuit keeps.
const MaxStruck = maxStruck

// AnticommutingStabilizer is the tests' reference for the branch
// operators Compile records: the support of one stabilizer generator
// anti-commuting with Z_q (the first with an X component on q, the one
// anticommutingRow picks, found by its own scan), as sparse X- and
// Z-component qubit lists, or ok=false when the Z measurement of q is
// deterministic (no such generator exists).
func (t *Tableau) AnticommutingStabilizer(q int) (xs, zs []int, ok bool) {
	t.checkQ(q)
	w, b := q/64, uint(q%64)
	for i := t.n; i < 2*t.n; i++ {
		if (t.x[i][w]>>b)&1 == 0 {
			continue
		}
		for p := 0; p < t.n; p++ {
			if t.getX(i, p) == 1 {
				xs = append(xs, p)
			}
			if t.getZ(i, p) == 1 {
				zs = append(zs, p)
			}
		}
		return xs, zs, true
	}
	return nil, nil, false
}
