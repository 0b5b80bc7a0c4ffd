package sinkless

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

func TestOrientRegularGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"K4", graph.Complete(4)},
		{"3regular", graph.RandomRegular(40, 3, rng)},
		{"5regular", graph.RandomRegular(30, 5, rng)},
		{"Torus", graph.Torus(5, 5)}, // degree 4
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := local.New(c.g)
			o, err := OrientKOut(net, 1)
			if err != nil {
				t.Fatalf("OrientKOut: %v", err)
			}
			if err := VerifyKOut(c.g, o, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOrientLowDegreeVerticesMayBeSinks(t *testing.T) {
	// A cycle has max degree 2; any orientation is sinkless by definition.
	g := graph.Cycle(7)
	o, err := OrientKOut(local.New(g), 1)
	if err != nil {
		t.Fatalf("OrientKOut: %v", err)
	}
	if err := VerifyKOut(g, o, 1); err != nil {
		t.Fatal(err)
	}
}

func TestOrientMixedDegrees(t *testing.T) {
	// K4 with a pendant path: the path vertices have degree <= 2.
	b := graph.NewBuilder(7)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
		}
	}
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	g := b.MustBuild()
	o, err := OrientKOut(local.New(g), 1)
	if err != nil {
		t.Fatalf("OrientKOut: %v", err)
	}
	if err := VerifyKOut(g, o, 1); err != nil {
		t.Fatal(err)
	}
}

func TestOrientTwoOut(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, d := range []int{6, 8, 10} {
		g := graph.RandomRegular(40, d, rng)
		o, err := OrientKOut(local.New(g), 2)
		if err != nil {
			t.Fatalf("d=%d: OrientKOut: %v", d, err)
		}
		if err := VerifyKOut(g, o, 2); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if err := VerifyKOut(g, o, 1); err != nil {
			t.Fatalf("d=%d: two-out orientation not sinkless: %v", d, err)
		}
	}
}

func TestVerifyCatchesSink(t *testing.T) {
	g := graph.Complete(4)
	o := &Orientation{Edges: g.Edges(), Tail: make([]int, g.M())}
	// Orient everything away from vertex 0's perspective: tails all set to
	// the other endpoint, making 3 a potential sink.
	for i, e := range o.Edges {
		o.Tail[i] = e.U // tails: 0,0,0,1,1,2 -> vertex 3 is a sink
	}
	if err := VerifyKOut(g, o, 1); err == nil {
		t.Fatal("sink not detected")
	}
}

func TestVerifyCatchesBadTail(t *testing.T) {
	g := graph.Path(3)
	o := &Orientation{Edges: g.Edges(), Tail: []int{2, 1}}
	if err := VerifyKOut(g, o, 1); err == nil {
		t.Fatal("non-endpoint tail accepted")
	}
}

func TestOrientRoundsLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{100, 1000} {
		g := graph.RandomRegular(n, 3, rng)
		net := local.New(g)
		if _, err := OrientKOut(net, 1); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if net.Rounds() > 300 {
			t.Fatalf("n=%d took %d rounds", n, net.Rounds())
		}
	}
}

func TestOrientProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + 2*rng.Intn(30)
		d := 3 + rng.Intn(3)
		if n*d%2 == 1 {
			n++
		}
		g := graph.RandomRegular(n, d, rng)
		o, err := OrientKOut(local.New(g), 1)
		if err != nil {
			return false
		}
		return VerifyKOut(g, o, 1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOrientKOut(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, k := range []int{2, 3, 4} {
		g := graph.RandomRegular(60, 3*k+1, rng)
		o, err := OrientKOut(local.New(g), k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := VerifyKOut(g, o, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestVerifyKOutBranches exercises every rejection branch of VerifyKOut:
// tail/edge length mismatch, a tail that is not an endpoint, and a vertex of
// degree >= 3k with fewer than k outgoing edges.
func TestVerifyKOutBranches(t *testing.T) {
	g := graph.Complete(7) // degree 6 = 3k for k=2: everyone participates
	o, err := OrientKOut(local.New(g), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKOut(g, o, 2); err != nil {
		t.Fatalf("valid orientation rejected: %v", err)
	}

	short := &Orientation{Edges: o.Edges, Tail: o.Tail[:len(o.Tail)-1]}
	if err := VerifyKOut(g, short, 2); err == nil {
		t.Fatal("tail/edge length mismatch accepted")
	}

	bad := &Orientation{Edges: o.Edges, Tail: append([]int(nil), o.Tail...)}
	bad.Tail[0] = 6
	if bad.Edges[0].U == 6 || bad.Edges[0].V == 6 {
		bad.Tail[0] = 5
	}
	if err := VerifyKOut(g, bad, 2); err == nil {
		t.Fatal("non-endpoint tail accepted")
	}

	// Concentrate every tail on vertex 0: every other vertex has out-degree
	// <= 1 < k while keeping degree 6 >= 3k.
	starved := &Orientation{Edges: o.Edges, Tail: make([]int, len(o.Edges))}
	for i, e := range o.Edges {
		if e.U == 0 || e.V == 0 {
			starved.Tail[i] = 0
		} else {
			starved.Tail[i] = e.U
		}
	}
	if err := VerifyKOut(g, starved, 2); err == nil {
		t.Fatal("under-k vertex accepted")
	}
}

func TestOrientKOutRejectsBadK(t *testing.T) {
	if _, err := OrientKOut(local.New(graph.Complete(4)), 0); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestOrientKOutLowDegreeSkipped(t *testing.T) {
	// Degree 5 < 3k for k=2: nobody participates, default orientation.
	g := graph.Complete(6)
	o, err := OrientKOut(local.New(g), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyKOut(g, o, 2); err != nil {
		t.Fatal(err) // vacuous: no vertex reaches degree 6
	}
}
