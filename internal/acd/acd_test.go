package acd

import (
	"math/rand"
	"testing"

	"deltacoloring/internal/graph"
	"deltacoloring/internal/local"
)

// requireGroundTruth checks that the computed ACD matches a generator's
// ground-truth clique partition exactly.
func requireGroundTruth(t *testing.T, g *graph.Graph, part *graph.CliquePartition, a *ACD) {
	t.Helper()
	if !a.IsDense() {
		t.Fatalf("expected dense classification, got %d sparse vertices", a.SparseCount())
	}
	if len(a.Cliques) != len(part.Cliques) {
		t.Fatalf("ACD found %d cliques, ground truth has %d", len(a.Cliques), len(part.Cliques))
	}
	for v := 0; v < g.N(); v++ {
		for w := v + 1; w < g.N(); w++ {
			same := part.Member[v] == part.Member[w]
			if (a.CliqueOf[v] == a.CliqueOf[w]) != same {
				t.Fatalf("vertices %d, %d: ACD grouping disagrees with ground truth", v, w)
			}
		}
	}
}

func TestComputeOnHardCliqueBipartite(t *testing.T) {
	g, part := graph.HardCliqueBipartite(16, 16)
	net := local.New(g)
	a, err := Compute(net, 1.0/8)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if err := a.Verify(g); err != nil {
		t.Fatal(err)
	}
	requireGroundTruth(t, g, part, a)
	if net.Rounds() == 0 || net.Rounds() > 30 {
		t.Fatalf("ACD charged %d rounds, want O(1)", net.Rounds())
	}
}

func TestComputeOnEasyCliqueRing(t *testing.T) {
	g, part := graph.EasyCliqueRing(6, 16)
	a, err := Compute(local.New(g), 1.0/8)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if err := a.Verify(g); err != nil {
		t.Fatal(err)
	}
	requireGroundTruth(t, g, part, a)
}

func TestComputePaperEpsDelta63(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	g, part := graph.HardCliqueBipartite(63, 63)
	a, err := Compute(local.New(g), PaperEps)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if err := a.Verify(g); err != nil {
		t.Fatal(err)
	}
	requireGroundTruth(t, g, part, a)
}

func TestTreeIsAllSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomTree(100, rng)
	a, err := Compute(local.New(g), 1.0/8)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if a.SparseCount() != 100 {
		t.Fatalf("tree: %d sparse vertices, want all 100", a.SparseCount())
	}
	if a.IsDense() {
		t.Fatal("tree misclassified as dense")
	}
	if err := a.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestCycleIsAllSparse(t *testing.T) {
	g := graph.Cycle(50)
	a, err := Compute(local.New(g), 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	if a.SparseCount() != 50 {
		t.Fatalf("cycle: %d sparse, want 50", a.SparseCount())
	}
}

func TestIsolatedCliquesAreACs(t *testing.T) {
	// K_{Δ+1} components: valid ACs of size Δ+1 (these are the Brooks
	// exceptions; Theorem 1 excludes them separately).
	g := graph.DisjointCliques(3, 17)
	a, err := Compute(local.New(g), 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(g); err != nil {
		t.Fatal(err)
	}
	if !a.IsDense() || len(a.Cliques) != 3 {
		t.Fatalf("disjoint cliques: dense=%v cliques=%d", a.IsDense(), len(a.Cliques))
	}
}

func TestErdosRenyiMostlySparse(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.ErdosRenyi(120, 0.1, rng)
	a, err := Compute(local.New(g), 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(g); err != nil {
		t.Fatal(err)
	}
	if a.IsDense() {
		t.Fatal("sparse random graph misclassified as dense")
	}
}

func TestComputeRejectsBadEps(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := Compute(local.New(g), 0); err == nil {
		t.Fatal("accepted eps=0")
	}
	if _, err := Compute(local.New(g), 1); err == nil {
		t.Fatal("accepted eps=1")
	}
}

func TestComputeEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	a, err := Compute(local.New(g), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsDense() || len(a.Cliques) != 0 {
		t.Fatal("empty graph should be trivially dense with no cliques")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	g, _ := graph.HardCliqueBipartite(16, 16)
	a, err := Compute(local.New(g), 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: move one vertex to another clique.
	bad := *a
	bad.CliqueOf = append([]int(nil), a.CliqueOf...)
	bad.CliqueOf[0] = (a.CliqueOf[0] + 1) % len(a.Cliques)
	if err := bad.Verify(g); err == nil {
		t.Fatal("corrupted ACD passed Verify")
	}
}

func TestPermutedIDsSameDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g, part := graph.HardCliqueBipartite(16, 16)
	p := graph.PermuteIDs(g, rng)
	a, err := Compute(local.New(p), 1.0/8)
	if err != nil {
		t.Fatal(err)
	}
	requireGroundTruth(t, p, part, a)
}

// TestFriendDiameterExceedsMatchesAllPairs checks the eccentricity-bound
// diameter test against an all-pairs BFS on random small graphs taken as
// one component, in every member order, through all three of its verdict
// paths: ecc > bound, 2·ecc <= bound, and the all-sources fallback.
func TestFriendDiameterExceedsMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	paths := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(12)
		g := graph.ErdosRenyi(n, 0.1+0.5*rng.Float64(), rng)
		foff := make([]int32, n+1)
		var fadj []int32
		for v := 0; v < n; v++ {
			fadj = append(fadj, g.Neighbors(v)...)
			foff[v+1] = int32(len(fadj))
		}
		diam := 0
		for s := 0; s < n && diam >= 0; s++ {
			for w := 0; w < n; w++ {
				d := g.Dist(s, w)
				if d < 0 {
					diam = -1
					break
				}
				diam = max(diam, d)
			}
		}
		comp := make([]int, n)
		pos := make([]int32, n)
		members := make([]int32, n)
		for i, v := range rng.Perm(n) {
			members[i] = int32(v)
			pos[v] = int32(i)
		}
		for _, bound := range []int{1, 2, 3, 4} {
			want := diam < 0 || diam > bound
			var sc bfsScratch
			if got := friendDiameterExceeds(foff, fadj, comp, pos, 0, members, &sc, bound); got != want {
				t.Fatalf("trial %d bound %d: exceeds %v, diameter %d", trial, bound, got, diam)
			}
			for _, d := range sc.dist {
				if d != -1 {
					t.Fatalf("trial %d: scratch not restored: %v", trial, sc.dist)
				}
			}
			ecc := 0
			for _, w := range members {
				ecc = max(ecc, g.Dist(int(members[0]), int(w)))
			}
			switch {
			case diam < 0:
				paths["disconnected"]++
			case ecc > bound:
				paths["ecc"]++
			case 2*ecc <= bound:
				paths["2ecc"]++
			default:
				paths["fallback"]++
			}
		}
	}
	for _, p := range []string{"disconnected", "ecc", "2ecc", "fallback"} {
		if paths[p] == 0 {
			t.Fatalf("no case took the %s path: %v", p, paths)
		}
	}
}
