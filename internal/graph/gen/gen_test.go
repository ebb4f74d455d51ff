package gen

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func diameter(g *graph.Graph) int { return g.DiameterWithWorkspace(graph.NewWorkspace(0)) }

func TestPath(t *testing.T) {
	g := Path(5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("path(5): n=%d m=%d", g.N(), g.M())
	}
	if diameter(g) != 4 {
		t.Fatal("path diameter")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(7)
	if g.M() != 7 {
		t.Fatalf("cycle(7) m = %d", g.M())
	}
	for v := 0; v < 7; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("cycle degree(%d) = %d", v, g.Degree(v))
		}
	}
	if Cycle(2).M() != 1 {
		t.Fatal("cycle(2) should degenerate to an edge")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	if g.M() != 15 {
		t.Fatalf("K6 m = %d", g.M())
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K(3,4): n=%d m=%d", g.N(), g.M())
	}
	ok, _ := g.IsBipartite()
	if !ok {
		t.Fatal("K(3,4) must be bipartite")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 5)
	if g.N() != 20 {
		t.Fatalf("grid n = %d", g.N())
	}
	if g.M() != 4*4+3*5 {
		t.Fatalf("grid m = %d", g.M())
	}
	if ok, _ := g.IsBipartite(); !ok {
		t.Fatal("grid must be bipartite")
	}
	if diameter(g) != 3+4 {
		t.Fatalf("grid diameter = %d", diameter(g))
	}
}

func TestTorus(t *testing.T) {
	g := Torus(4, 6)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus degree(%d) = %d", v, g.Degree(v))
		}
	}
	if g.M() != 2*4*6 {
		t.Fatalf("torus m = %d", g.M())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d", g.N(), g.M())
	}
	if diameter(g) != 4 {
		t.Fatalf("Q4 diameter = %d", diameter(g))
	}
	if ok, _ := g.IsBipartite(); !ok {
		t.Fatal("hypercube must be bipartite")
	}
}

func TestStar(t *testing.T) {
	g := Star(10)
	if g.Degree(0) != 9 {
		t.Fatal("star center degree")
	}
	if diameter(g) != 2 {
		t.Fatal("star diameter")
	}
}

func TestCompleteDAryTree(t *testing.T) {
	g := CompleteDAryTree(2, 3) // 1+2+4+8 = 15
	if g.N() != 15 || g.M() != 14 {
		t.Fatalf("binary tree depth 3: n=%d m=%d", g.N(), g.M())
	}
	if g.Girth() != -1 {
		t.Fatal("tree has a cycle?")
	}
	// Root degree is arity; leaves degree 1.
	if g.Degree(0) != 2 {
		t.Fatalf("root degree = %d", g.Degree(0))
	}
	// Regular tree used in the lower bound: arity d-1 per internal node.
	g18 := CompleteDAryTree(3, 2)
	if g18.N() != 1+3+9 {
		t.Fatalf("3-ary depth-2 n = %d", g18.N())
	}
}

func TestRandomTree(t *testing.T) {
	rng := xrand.New(1)
	g := RandomTree(50, rng)
	if g.N() != 50 || g.M() != 49 {
		t.Fatalf("random tree: n=%d m=%d", g.N(), g.M())
	}
	_, count := g.ComponentsAliveWithWorkspace(graph.NewWorkspace(0), nil)
	if count != 1 {
		t.Fatal("random tree disconnected")
	}
	if g.Girth() != -1 {
		t.Fatal("random tree has a cycle")
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 3)
	if g.N() != 5*4 {
		t.Fatalf("caterpillar n = %d", g.N())
	}
	if g.M() != 4+15 {
		t.Fatalf("caterpillar m = %d", g.M())
	}
	if g.Girth() != -1 {
		t.Fatal("caterpillar must be a tree")
	}
}

func TestGNP(t *testing.T) {
	rng := xrand.New(2)
	g := GNP(100, 0.1, rng)
	expected := 0.1 * 100 * 99 / 2
	if float64(g.M()) < expected*0.7 || float64(g.M()) > expected*1.3 {
		t.Fatalf("G(100,0.1) m = %d, expected ~%v", g.M(), expected)
	}
	if GNP(10, 0, rng).M() != 0 {
		t.Fatal("G(n,0) must be empty")
	}
	if GNP(5, 1, rng).M() != 10 {
		t.Fatal("G(n,1) must be complete")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(3)
	g := RandomRegular(100, 4, rng)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	// Odd n*d gets rounded up.
	g = RandomRegular(9, 3, rng)
	if g.N()%2 != 0 {
		t.Fatalf("odd-product regular graph should round n up, n = %d", g.N())
	}
	// Degenerate inputs.
	if RandomRegular(0, 3, rng).N() != 0 {
		t.Fatal("n=0 should yield empty graph")
	}
	if RandomRegular(5, 0, rng).M() != 0 {
		t.Fatal("d=0 should yield edgeless graph")
	}
}

func TestCirculant(t *testing.T) {
	g := Circulant(10, 4)
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("circulant degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestHighGirthRegular(t *testing.T) {
	rng := xrand.New(4)
	g, girth := HighGirthRegular(200, 3, 6, rng)
	if g == nil {
		t.Fatal("no graph returned")
	}
	if girth < 4 {
		t.Fatalf("high-girth generator achieved girth %d", girth)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("not 3-regular at %d", v)
		}
	}
}

func TestCliquePlusPath(t *testing.T) {
	g := CliquePlusPath(10, 20)
	if g.N() != 30 {
		t.Fatalf("n = %d", g.N())
	}
	if g.M() != 45+20 {
		t.Fatalf("m = %d", g.M())
	}
	// Clique vertices 1..9 have degree 9; vertex 0 has degree 9+1.
	if g.Degree(0) != 10 {
		t.Fatalf("hub degree = %d", g.Degree(0))
	}
	if g.Degree(5) != 9 {
		t.Fatalf("clique degree = %d", g.Degree(5))
	}
	// Path end has degree 1.
	if g.Degree(29) != 1 {
		t.Fatalf("path end degree = %d", g.Degree(29))
	}
	if diameter(g) != 20+1 {
		t.Fatalf("diameter = %d", diameter(g))
	}
}

func TestMPXBad(t *testing.T) {
	tt := 8
	g := MPXBad(tt)
	if g.N() != 4*tt+2 {
		t.Fatalf("n = %d", g.N())
	}
	if g.M() != tt*tt+4*tt {
		t.Fatalf("m = %d, want %d", g.M(), tt*tt+4*tt)
	}
	lo1, hi1, lo2, hi2 := MPXBadParts(tt)
	// Every L vertex is adjacent to every R vertex.
	for l := lo1; l < hi1; l++ {
		for r := lo2; r < hi2; r++ {
			if !g.HasEdge(l, r) {
				t.Fatalf("missing cross edge %d-%d", l, r)
			}
		}
	}
	// Hubs: u=0 adjacent to SL and L; v=1 adjacent to SR and R.
	if g.Degree(0) != 2*tt || g.Degree(1) != 2*tt {
		t.Fatalf("hub degrees %d, %d", g.Degree(0), g.Degree(1))
	}
}

func TestFamily(t *testing.T) {
	for _, kind := range FamilyNames {
		g, err := Family(kind, 64, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.N() < 2 {
			t.Fatalf("%s: degenerate graph %v", kind, g)
		}
		// Seeded families are deterministic: same triple, same graph.
		h, err := Family(kind, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != h.N() || g.M() != h.M() {
			t.Fatalf("%s: not deterministic: %v vs %v", kind, g, h)
		}
	}
	if _, err := Family("mobius", 64, 1); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := Family("cycle", 1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	// Grid and torus round n to the nearest square.
	g, err := Family("grid", 100, 1)
	if err != nil || g.N() != 100 {
		t.Fatalf("grid rounding: %v %v", g, err)
	}
}
