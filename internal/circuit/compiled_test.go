package circuit

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCompiledBuildsOncePerOpList: the slot builds on first use, serves
// concurrent first users one build, and hands every later user the same
// value.
func TestCompiledBuildsOncePerOpList(t *testing.T) {
	c := New(2, 0)
	c.H(0)
	var builds atomic.Int64
	build := func(*Circuit) any {
		builds.Add(1)
		return new(int)
	}
	got := make([]any, 8)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = c.Compiled(build)
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("8 concurrent first users built %d times, want 1", n)
	}
	for g, v := range got {
		if v != got[0] {
			t.Fatalf("user %d got a different value from user 0", g)
		}
	}
}

// TestCompiledDroppedByEveryAppend: whatever was compiled from a
// shorter op list is stale, through each way an op can be appended.
func TestCompiledDroppedByEveryAppend(t *testing.T) {
	other := New(2, 1)
	other.X(1)
	for name, appendOp := range map[string]func(*Circuit){
		"one-qubit gate": func(c *Circuit) { c.H(0) },
		"two-qubit gate": func(c *Circuit) { c.CNOT(0, 1) },
		"measure":        func(c *Circuit) { c.Measure(0, 0) },
		"reset":          func(c *Circuit) { c.Reset(1) },
		"barrier":        func(c *Circuit) { c.Barrier() },
		"Append":         func(c *Circuit) { c.Append(other) },
	} {
		c := New(2, 1)
		builds := 0
		build := func(c *Circuit) any {
			builds++
			return len(c.Ops)
		}
		c.Compiled(build)
		appendOp(c)
		if got := c.Compiled(build); builds != 2 || got != len(c.Ops) {
			t.Errorf("%s: %d builds, value %v for %d ops; want a second build over the longer list",
				name, builds, got, len(c.Ops))
		}
	}
}

// TestCloneLeavesCompiledBehind: a clone neither shares nor copies the
// slot, so appending to one never serves the other a stale value.
func TestCloneLeavesCompiledBehind(t *testing.T) {
	c := New(1, 0)
	c.H(0)
	c.Compiled(func(*Circuit) any { return "original" })
	cl := c.Clone()
	if got := cl.Compiled(func(*Circuit) any { return "clone" }); got != "clone" {
		t.Fatalf("clone's first use returned %q", got)
	}
	if got := c.Compiled(func(*Circuit) any { return "rebuilt" }); got != "original" {
		t.Fatalf("original lost its value to the clone: %q", got)
	}
}
