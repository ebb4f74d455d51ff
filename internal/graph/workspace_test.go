package graph_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// randomGraph builds a deterministic pseudo-random graph for the
// equivalence tests: n vertices, ~m edge attempts, plus a sprinkling of
// isolated vertices and a second component.
func randomGraph(n, m int, seed uint64) *graph.Graph {
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func randomAlive(n int, seed uint64) []bool {
	rng := xrand.New(seed)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = rng.Float64() < 0.8
	}
	return alive
}

// --- Reference (naive) implementations ------------------------------------

func refBFSBounded(g *graph.Graph, src, radius int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if radius >= 0 && int(dist[v]) >= radius {
			continue
		}
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] == graph.Unreachable {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func refBallAlive(g *graph.Graph, v, k int, alive []bool) []int32 {
	if v < 0 || v >= g.N() || (alive != nil && !alive[v]) {
		return nil
	}
	seen := make([]bool, g.N())
	seen[v] = true
	ball := []int32{int32(v)}
	frontier := []int32{int32(v)}
	for d := 0; d < k && len(frontier) > 0; d++ {
		var next []int32
		for _, u := range frontier {
			for _, w := range g.Neighbors(int(u)) {
				if seen[w] || (alive != nil && !alive[w]) {
					continue
				}
				seen[w] = true
				next = append(next, w)
				ball = append(ball, w)
			}
		}
		frontier = next
	}
	return ball
}

func refBallLayers(g *graph.Graph, v, k int, alive []bool) [][]int32 {
	if v < 0 || v >= g.N() || (alive != nil && !alive[v]) {
		return nil
	}
	seen := make([]bool, g.N())
	seen[v] = true
	layers := [][]int32{{int32(v)}}
	frontier := []int32{int32(v)}
	for d := 0; d < k && len(frontier) > 0; d++ {
		var next []int32
		for _, u := range frontier {
			for _, w := range g.Neighbors(int(u)) {
				if seen[w] || (alive != nil && !alive[w]) {
					continue
				}
				seen[w] = true
				next = append(next, w)
			}
		}
		if len(next) == 0 {
			break
		}
		layers = append(layers, next)
		frontier = next
	}
	return layers
}

func refComponentsAlive(g *graph.Graph, alive []bool) ([]int32, int) {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	for s := 0; s < g.N(); s++ {
		if comp[s] != -1 || (alive != nil && !alive[s]) {
			continue
		}
		comp[s] = int32(count)
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(int(v)) {
				if comp[w] == -1 && (alive == nil || alive[w]) {
					comp[w] = int32(count)
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// --- Equivalence: workspace variants vs reference semantics ----------------

func TestWorkspaceTraversalsMatchReference(t *testing.T) {
	ws := graph.NewWorkspace(0)
	for _, tc := range []struct{ n, m int }{{1, 0}, {17, 20}, {120, 200}, {300, 260}} {
		g := randomGraph(tc.n, tc.m, uint64(tc.n)*13+1)
		alive := randomAlive(tc.n, uint64(tc.m)+7)
		for _, src := range []int{0, tc.n / 2, tc.n - 1} {
			for _, radius := range []int{-1, 0, 1, 3, tc.n} {
				want := refBFSBounded(g, src, radius)
				got := g.BFSBoundedWithWorkspace(ws, src, radius)
				if !reflect.DeepEqual(want, append([]int32(nil), got...)) {
					t.Fatalf("BFSBounded(n=%d src=%d r=%d) mismatch", tc.n, src, radius)
				}
			}
			for _, k := range []int{0, 1, 2, 5, tc.n} {
				for _, a := range [][]bool{nil, alive} {
					want := refBallAlive(g, src, k, a)
					got := g.BallAliveWithWorkspace(ws, src, k, a)
					if len(want) != len(got) || (want != nil && !reflect.DeepEqual(want, append([]int32(nil), got...))) {
						t.Fatalf("BallAlive(n=%d v=%d k=%d) mismatch: want %v got %v", tc.n, src, k, want, got)
					}
					wantL := refBallLayers(g, src, k, a)
					gotL := g.BallLayersWithWorkspace(ws, src, k, a)
					if len(wantL) != len(gotL) {
						t.Fatalf("BallLayers(n=%d v=%d k=%d) layer count %d != %d", tc.n, src, k, len(gotL), len(wantL))
					}
					for i := range wantL {
						if !reflect.DeepEqual(wantL[i], append([]int32(nil), gotL[i]...)) {
							t.Fatalf("BallLayers(n=%d v=%d k=%d) layer %d mismatch", tc.n, src, k, i)
						}
					}
				}
			}
		}
	}
}

func TestWorkspaceComponentsMatchReference(t *testing.T) {
	ws := graph.NewWorkspace(0)
	g := randomGraph(150, 170, 99)
	alive := randomAlive(150, 5)
	for _, a := range [][]bool{nil, alive} {
		wantComp, wantCount := refComponentsAlive(g, a)
		gotComp, gotCount := g.ComponentsAliveWithWorkspace(ws, a)
		if wantCount != gotCount || !reflect.DeepEqual(wantComp, append([]int32(nil), gotComp...)) {
			t.Fatalf("ComponentsAlive(alive nil=%v) mismatch: want %d components %v, got %d %v",
				a == nil, wantCount, wantComp, gotCount, gotComp)
		}
	}
}

func TestInducedWithWorkspaceMatchesReference(t *testing.T) {
	ws := graph.NewWorkspace(0)
	g := randomGraph(80, 140, 17)
	rng := xrand.New(123)
	for trial := 0; trial < 20; trial++ {
		var vertices []int32
		for v := 0; v < g.N(); v++ {
			if rng.Float64() < 0.5 {
				vertices = append(vertices, int32(v))
			}
		}
		// Duplicates must collapse.
		vertices = append(vertices, vertices...)

		sub, back := g.InducedWithWorkspace(ws, vertices)

		// Reference: dedup in input order, edges via membership.
		seen := map[int32]int32{}
		var wantBack []int32
		for _, v := range vertices {
			if _, ok := seen[v]; ok {
				continue
			}
			seen[v] = int32(len(wantBack))
			wantBack = append(wantBack, v)
		}
		if !reflect.DeepEqual(wantBack, append([]int32(nil), back...)) {
			t.Fatalf("trial %d: newToOld mismatch", trial)
		}
		var wantEdges [][2]int
		for newU, oldU := range wantBack {
			for _, w := range g.Neighbors(int(oldU)) {
				if nw, ok := seen[w]; ok && int32(newU) < nw {
					wantEdges = append(wantEdges, [2]int{newU, int(nw)})
				}
			}
		}
		want := graph.FromEdges(len(wantBack), wantEdges)
		if sub.N() != want.N() || sub.M() != want.M() || !reflect.DeepEqual(sub.EdgeList(), want.EdgeList()) {
			t.Fatalf("trial %d: induced graph mismatch: got %v want %v", trial, sub, want)
		}
	}
}

// TestBallOutputStableAcrossReuse is the regression test for the reused
// ball output buffer: repeated queries on a warm workspace — interleaved
// with unrelated traversals that share the same buffers — must return
// exactly the same contents as a fresh computation.
func TestBallOutputStableAcrossReuse(t *testing.T) {
	g := randomGraph(200, 320, 3)
	alive := randomAlive(200, 11)
	ws := graph.NewWorkspace(0)
	for v := 0; v < g.N(); v += 7 {
		fresh := g.BallAliveWithWorkspace(graph.NewWorkspace(0), v, 4, alive)
		warm := append([]int32(nil), g.BallAliveWithWorkspace(ws, v, 4, alive)...)
		// Interleave other traversals, then re-query.
		g.BFSBoundedWithWorkspace(ws, (v+13)%g.N(), 3)
		g.ComponentsAliveWithWorkspace(ws, alive)
		again := append([]int32(nil), g.BallAliveWithWorkspace(ws, v, 4, alive)...)
		if !reflect.DeepEqual(fresh, warm) || !reflect.DeepEqual(fresh, again) {
			t.Fatalf("ball contents changed across workspace reuse at v=%d:\nfresh %v\nwarm  %v\nagain %v", v, fresh, warm, again)
		}
	}
}

// --- Allocation regressions ------------------------------------------------

func TestZeroAllocTraversalsWarmWorkspace(t *testing.T) {
	g := randomGraph(400, 700, 21)
	alive := randomAlive(400, 31)
	ws := graph.NewWorkspace(g.N())
	vertices := make([]int32, 0, g.N()/2)
	for v := 0; v < g.N(); v += 2 {
		vertices = append(vertices, int32(v))
	}
	// Warm up every buffer once.
	g.BFSBoundedWithWorkspace(ws, 0, -1)
	g.BallAliveWithWorkspace(ws, 0, 8, alive)
	g.InducedWithWorkspace(ws, vertices)

	if n := testing.AllocsPerRun(50, func() {
		g.BFSBoundedWithWorkspace(ws, 5, -1)
	}); n != 0 {
		t.Errorf("BFSBoundedWithWorkspace: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		g.BallAliveWithWorkspace(ws, 9, 8, alive)
	}); n != 0 {
		t.Errorf("BallAliveWithWorkspace: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		g.InducedWithWorkspace(ws, vertices)
	}); n != 0 {
		t.Errorf("InducedWithWorkspace: %v allocs/op, want 0", n)
	}
}

// --- Concurrency: one workspace per goroutine is race-free -----------------

func TestConcurrentWorkspaces(t *testing.T) {
	g := randomGraph(300, 500, 8)
	alive := randomAlive(300, 9)
	want := make([][]int32, g.N())
	for v := range want {
		want[v] = refBallAlive(g, v, 5, alive)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ws := graph.NewWorkspace(0)
			for v := worker; v < g.N(); v += 8 {
				got := g.BallAliveWithWorkspace(ws, v, 5, alive)
				if len(got) != len(want[v]) {
					t.Errorf("worker %d: ball size mismatch at v=%d", worker, v)
					return
				}
				for i := range got {
					if got[i] != want[v][i] {
						t.Errorf("worker %d: ball content mismatch at v=%d", worker, v)
						return
					}
				}
				sub, _ := g.InducedWithWorkspace(ws, got)
				if sub.N() != len(got) {
					t.Errorf("worker %d: induced size mismatch at v=%d", worker, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
