package spanner

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

func TestK1ReturnsGraph(t *testing.T) {
	g := gen.Cycle(20)
	r := BaswanaSen(g, 1, 1)
	if len(r.Edges) != g.M() || r.Stretch != 1 {
		t.Fatalf("k=1: edges=%d stretch=%d", len(r.Edges), r.Stretch)
	}
}

func TestStretchOnRandomGraphs(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 10; trial++ {
		n := 60 + rng.Intn(60)
		g := gen.GNP(n, 6.0/float64(n), rng)
		for _, k := range []int{2, 3} {
			r := BaswanaSen(g, k, uint64(trial)*31+uint64(k))
			if r.Stretch != 2*k-1 {
				t.Fatalf("stretch = %d", r.Stretch)
			}
			if ok, u, v := VerifyStretch(g, r); !ok {
				t.Fatalf("trial %d k=%d: stretch violated at %d-%d", trial, k, u, v)
			}
		}
	}
}

func TestStretchOnDenseGraph(t *testing.T) {
	g := gen.Complete(60)
	r := BaswanaSen(g, 2, 7)
	if ok, u, v := VerifyStretch(g, r); !ok {
		t.Fatalf("stretch violated at %d-%d", u, v)
	}
	// A 3-spanner of K60 must be far sparser than the 1770 edges.
	if len(r.Edges) >= g.M() {
		t.Fatalf("spanner did not sparsify: %d of %d", len(r.Edges), g.M())
	}
}

func TestSizeNearExpectationBound(t *testing.T) {
	// Mean realized size should be within a small constant of k*n^{1+1/k}.
	rng := xrand.New(3)
	g := gen.GNP(300, 0.15, rng) // dense enough that sparsification matters
	k := 2
	sizes := SizeTail(g, k, 20, 5)
	var sum int
	for _, s := range sizes {
		sum += s
	}
	mean := float64(sum) / float64(len(sizes))
	bound := ExpectationBound(g.N(), k)
	if mean > 3*bound {
		t.Fatalf("mean size %.0f >> expectation bound %.0f", mean, bound)
	}
	// Sorted output.
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatal("SizeTail not sorted")
		}
	}
}

func TestSpannerConnectivityPreserved(t *testing.T) {
	// A spanner preserves connectivity (stretch is finite on every edge).
	rng := xrand.New(4)
	g := gen.GNP(120, 0.08, rng)
	r := BaswanaSen(g, 3, 9)
	s := r.Graph(g.N())
	compG, nG := g.ComponentsAliveWithWorkspace(graph.NewWorkspace(0), nil)
	compS, nS := s.ComponentsAliveWithWorkspace(graph.NewWorkspace(0), nil)
	if nG != nS {
		t.Fatalf("components: graph %d, spanner %d", nG, nS)
	}
	// Same partition (up to relabeling): vertices in the same g-component
	// must share an s-component.
	repr := map[int32]int32{}
	for v := range compG {
		if r, ok := repr[compG[v]]; ok {
			if compS[v] != r {
				t.Fatal("spanner split a component")
			}
		} else {
			repr[compG[v]] = compS[v]
		}
	}
}

func TestSpannerOnTreeIsTree(t *testing.T) {
	// A tree has no redundant edges: any spanner with finite stretch must
	// keep all n-1 edges.
	g := gen.RandomTree(80, xrand.New(5))
	r := BaswanaSen(g, 3, 11)
	if len(r.Edges) != g.M() {
		t.Fatalf("tree spanner has %d edges, want %d", len(r.Edges), g.M())
	}
}

func TestVerifyStretchCatchesViolations(t *testing.T) {
	// Hand-build a bogus "spanner" missing a bridge: verification must fail.
	g := gen.Path(5)
	bogus := &Result{Edges: [][2]int{{0, 1}, {1, 2}, {3, 4}}, Stretch: 3}
	ok, u, v := VerifyStretch(g, bogus)
	if ok {
		t.Fatal("missing bridge not detected")
	}
	if u != 2 || v != 3 {
		t.Fatalf("wrong violation reported: %d-%d", u, v)
	}
	_ = graph.Unreachable
}

func BenchmarkBaswanaSenGNP(b *testing.B) {
	rng := xrand.New(1)
	g := gen.GNP(500, 0.05, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BaswanaSen(g, 3, uint64(i))
	}
}
