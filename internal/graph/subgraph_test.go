package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInduced(t *testing.T) {
	g := Complete(6)
	sub := Induced(g, []int{1, 3, 5, 3}) // duplicate ignored
	if sub.G.N() != 3 {
		t.Fatalf("n = %d, want 3", sub.G.N())
	}
	if sub.G.M() != 3 {
		t.Fatalf("m = %d, want 3 (triangle)", sub.G.M())
	}
	if want := []int{1, 3, 5}; !reflect.DeepEqual(sub.ToParent, want) {
		t.Fatalf("ToParent = %v, want %v", sub.ToParent, want)
	}
	for i, p := range sub.ToParent {
		if sub.G.ID(i) != g.ID(p) {
			t.Fatal("IDs not inherited")
		}
	}
	if sub.FromParent != nil {
		t.Fatal("Induced built a parent-sized FromParent map")
	}
}

func TestInducedPreservesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := ErdosRenyi(40, 0.2, rng)
	vs := rng.Perm(40)[:17]
	sub := Induced(g, vs)
	for a := 0; a < sub.G.N(); a++ {
		for b := a + 1; b < sub.G.N(); b++ {
			if sub.G.HasEdge(a, b) != g.HasEdge(sub.ToParent[a], sub.ToParent[b]) {
				t.Fatalf("adjacency mismatch at (%d,%d)", a, b)
			}
		}
	}
}

func TestPower(t *testing.T) {
	g := Path(6)
	p2 := Power(g, 2)
	if !p2.HasEdge(0, 2) || !p2.HasEdge(0, 1) {
		t.Fatal("missing distance-<=2 edge")
	}
	if p2.HasEdge(0, 3) {
		t.Fatal("distance-3 edge present in square")
	}
	if got := Power(g, 1).M(); got != g.M() {
		t.Fatalf("G^1 has %d edges, want %d", got, g.M())
	}
}

func TestLineGraph(t *testing.T) {
	g := Star(5) // line graph of a star is complete
	lg, edges := LineGraph(g)
	if lg.N() != 4 || len(edges) != 4 {
		t.Fatalf("line graph n = %d, want 4", lg.N())
	}
	if lg.M() != 6 {
		t.Fatalf("line graph of K_{1,4} should be K4; m = %d", lg.M())
	}
	c := Cycle(7) // line graph of a cycle is the cycle
	lc, _ := LineGraph(c)
	if lc.N() != 7 || lc.M() != 7 || lc.MaxDegree() != 2 {
		t.Fatalf("line graph of C7 wrong: %v", lc)
	}
	if err := lc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestUnion(t *testing.T) {
	u := Union(Complete(3), Cycle(4))
	if u.N() != 7 || u.M() != 7 {
		t.Fatalf("union shape n=%d m=%d", u.N(), u.M())
	}
	if err := u.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if u.HasEdge(2, 3) {
		t.Fatal("edge across union components")
	}
}

// Property: for random graphs, Induced on a random subset preserves degrees
// counted within the subset.
func TestInducedDegreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		g := ErdosRenyi(n, 0.3, rng)
		size := 1 + rng.Intn(n)
		vs := rng.Perm(n)[:size]
		sub := Induced(g, vs)
		in := make([]bool, n)
		for _, v := range vs {
			in[v] = true
		}
		for i, p := range sub.ToParent {
			want := 0
			for _, w := range g.Neighbors(p) {
				if in[w] {
					want++
				}
			}
			if sub.G.Degree(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Power(g, r) edge (u,v) exists iff 1 <= Dist(u,v) <= r.
func TestPowerDistanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		g := ErdosRenyi(n, 0.15, rng)
		r := 1 + rng.Intn(3)
		p := Power(g, r)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				d := g.Dist(u, v)
				want := d >= 1 && d <= r
				if p.HasEdge(u, v) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: line graph has sum over vertices of C(deg,2) edges.
func TestLineGraphEdgeCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g := ErdosRenyi(n, 0.3, rng)
		lg, _ := LineGraph(g)
		want := 0
		for v := 0; v < n; v++ {
			d := g.Degree(v)
			want += d * (d - 1) / 2
		}
		return lg.M() == want && lg.N() == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
