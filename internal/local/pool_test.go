package local

// Tests for the persistent worker pool and the double-buffered Runner. Run
// with -race: the pool's chunk scheduling and the Runner's buffer flips are
// exactly the places a data race would hide.

import (
	"sync"
	"testing"

	"deltacoloring/internal/graph"
)

// TestRunnerMatchesExchange pins the Runner's contract against one-shot
// rounds on fresh runners (exchange): stepping the same pure function on the
// flipped buffers must produce the same states, and States must always
// expose the latest buffer.
func TestRunnerMatchesExchange(t *testing.T) {
	g := graph.Torus(10, 10)
	inc := func(v int, self int, nbrs Nbrs[int]) int {
		best := self
		for i := 0; i < nbrs.Len(); i++ {
			if s := nbrs.State(i); s > best {
				best = s
			}
		}
		return best + 1
	}
	want := make([]int, g.N())
	netA := New(g)
	for r := 0; r < 5; r++ {
		want = exchange(netA, want, inc)
	}
	netB := New(g)
	run := NewRunner(netB, make([]int, g.N()))
	var got []int
	for r := 0; r < 5; r++ {
		got = run.Step(inc)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("runner diverged at vertex %d: %d vs %d", v, got[v], want[v])
		}
	}
	if states := run.States(); &states[0] != &got[0] {
		t.Fatal("States does not expose the latest buffer")
	}
	if netA.Rounds() != netB.Rounds() {
		t.Fatalf("round counts diverged: %d vs %d", netA.Rounds(), netB.Rounds())
	}
}

// TestNetworkCloseThenReuse verifies Close releases the pool without
// breaking the network: further parallel rounds lazily restart it, and a
// second Close is a no-op.
func TestNetworkCloseThenReuse(t *testing.T) {
	g := graph.Torus(20, 20) // >= parallelThreshold vertices
	net := New(g)
	net.SetWorkers(4)
	st := exchange(net, make([]int, g.N()), func(v int, self int, nbrs Nbrs[int]) int {
		return self + 1
	})
	net.Close()
	st = exchange(net, st, func(v int, self int, nbrs Nbrs[int]) int {
		return self + 1
	})
	for v, s := range st {
		if s != 2 {
			t.Fatalf("vertex %d has state %d after two rounds, want 2", v, s)
		}
	}
	net.Close()
	net.Close()
}

// TestPoolConcurrentNetworks drives several parallel networks at once, the
// shape a job-queue service produces; under -race this exercises the pool's
// job channel and the per-chunk counters.
func TestPoolConcurrentNetworks(t *testing.T) {
	g := graph.Torus(18, 18)
	var wg sync.WaitGroup
	results := make([][]int, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			net := New(g)
			net.SetWorkers(4)
			defer net.Close()
			st, _, err := NewRunner(net, make([]int, g.N())).Run(50,
				func(v int, self int, nbrs Nbrs[int]) int { return self + 1 },
				func(v int, s int) bool { return s >= 10 },
			)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = st
		}(i)
	}
	wg.Wait()
	for i, st := range results {
		if st == nil {
			continue // reported above
		}
		for v, s := range st {
			if s != 10 {
				t.Fatalf("run %d: vertex %d stopped at %d, want 10", i, v, s)
			}
		}
	}
}
