package inject

import (
	"sync"

	"radqec/internal/stab"
)

// Tableau allocation is the dominant per-shot cost for small codes, so
// campaigns reuse tableaux through a size-keyed pool.
var tableauPools sync.Map // int -> *sync.Pool

func newPooledTableau(n int) *stab.Tableau {
	p, _ := tableauPools.LoadOrStore(n, &sync.Pool{
		New: func() any { return stab.New(n) },
	})
	t := p.(*sync.Pool).Get().(*stab.Tableau)
	t.ResetState()
	return t
}

func releaseTableau(t *stab.Tableau) {
	if p, ok := tableauPools.Load(t.N()); ok {
		p.(*sync.Pool).Put(t)
	}
}
