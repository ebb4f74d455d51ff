// Package spanner implements the (2k−1)-spanner application discussed in
// the paper's introduction and conclusion: Elkin–Neiman (2018) build a
// spanner of stretch 2k−1 and *expected* size O(n^{1+1/k}) from the random
// shift machinery, and the paper (following FGdV22) poses as an open
// question whether that size bound can be made to hold with high
// probability — the very expectation-vs-whp gap Theorem 1.1 closes for
// low-diameter decompositions.
//
// We implement the classical Baswana–Sen clustering construction, which
// has the same guarantee profile (stretch 2k−1 always; size O(k·n^{1+1/k})
// in expectation, achieved by k−1 rounds of cluster sampling at rate
// n^{−1/k}), and expose the realized-size distribution so the open
// question's object of study — the upper tail of the spanner size — can be
// measured (see SizeTail and the tests).
package spanner

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Result is a constructed spanner.
type Result struct {
	// Edges are the spanner edges (u < v).
	Edges [][2]int
	// Stretch is the guaranteed multiplicative stretch 2k-1.
	Stretch int
	// Rounds is the LOCAL round complexity charged (O(k): each of the k
	// phases needs O(1) rounds of neighbor communication).
	Rounds int
}

// Graph materializes the spanner as a graph on the same vertex set.
func (r *Result) Graph(n int) *graph.Graph {
	return graph.FromEdges(n, r.Edges)
}

// BaswanaSen builds a (2k-1)-spanner of g. k >= 1; k = 1 returns the graph
// itself (stretch 1).
func BaswanaSen(g *graph.Graph, k int, seed uint64) *Result {
	n := g.N()
	if k <= 1 {
		return &Result{Edges: g.EdgeList(), Stretch: 1, Rounds: 0}
	}
	rng := xrand.New(seed)
	p := math.Pow(float64(n), -1.0/float64(k))

	// cluster[v] = id of v's cluster (its center), or -1 once v leaves the
	// clustered part.
	cluster := make([]int32, n)
	for v := range cluster {
		cluster[v] = int32(v)
	}
	type edgeKey struct{ u, v int32 }
	spanner := make(map[edgeKey]bool)
	addEdge := func(u, v int32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		spanner[edgeKey{u, v}] = true
	}

	// Phases 1..k-1: sample cluster centers, connect unsampled vertices.
	for phase := 1; phase < k; phase++ {
		// Sample the surviving clusters.
		sampled := map[int32]bool{}
		seen := map[int32]bool{}
		for v := 0; v < n; v++ {
			c := cluster[v]
			if c < 0 || seen[c] {
				continue
			}
			seen[c] = true
			if rng.Bernoulli(p) {
				sampled[c] = true
			}
		}
		newCluster := make([]int32, n)
		for v := 0; v < n; v++ {
			newCluster[v] = -1
			c := cluster[v]
			if c < 0 {
				continue
			}
			if sampled[c] {
				newCluster[v] = c // stays in its (sampled) cluster
				continue
			}
			// v's cluster died. If v neighbors a sampled cluster, join the
			// first one through one edge; otherwise add one edge to EVERY
			// neighboring cluster and leave the clustered part.
			var joinC int32 = -1
			var joinW int32 = -1
			perCluster := map[int32]int32{}
			for _, w := range g.Neighbors(v) {
				cw := cluster[w]
				if cw < 0 {
					continue
				}
				if _, ok := perCluster[cw]; !ok {
					perCluster[cw] = w
				}
				if sampled[cw] && joinC == -1 {
					joinC = cw
					joinW = w
				}
			}
			if joinC >= 0 {
				addEdge(int32(v), joinW)
				newCluster[v] = joinC
			} else {
				for _, w := range perCluster {
					addEdge(int32(v), w)
				}
			}
		}
		cluster = newCluster
	}

	// Final phase: every vertex still clustered adds one edge to each
	// neighboring cluster.
	for v := 0; v < n; v++ {
		perCluster := map[int32]int32{}
		for _, w := range g.Neighbors(v) {
			cw := cluster[w]
			if cw < 0 {
				continue
			}
			if _, ok := perCluster[cw]; !ok {
				perCluster[cw] = w
			}
		}
		for _, w := range perCluster {
			addEdge(int32(v), w)
		}
	}

	edges := make([][2]int, 0, len(spanner))
	for e := range spanner {
		edges = append(edges, [2]int{int(e.u), int(e.v)})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return &Result{Edges: edges, Stretch: 2*k - 1, Rounds: 3 * k}
}

// VerifyStretch checks dist_S(u, v) <= stretch * dist_G(u, v) for every
// edge of g (which suffices: stretch on edges implies stretch on paths).
// Returns the first violated edge if any.
func VerifyStretch(g *graph.Graph, r *Result) (ok bool, badU, badV int) {
	s := r.Graph(g.N())
	ok = true
	badU, badV = -1, -1
	ws := graph.AcquireWorkspace()
	defer graph.ReleaseWorkspace(ws)
	// BFS in the spanner from each endpoint of a violating candidate would
	// be O(n·m); instead BFS once per vertex bounded by stretch.
	for u := 0; u < g.N() && ok; u++ {
		dist := s.BFSBoundedWithWorkspace(ws, u, r.Stretch)
		for _, w := range g.Neighbors(u) {
			if int(w) < u {
				continue
			}
			if dist[w] == graph.Unreachable || int(dist[w]) > r.Stretch {
				ok = false
				badU, badV = u, int(w)
				break
			}
		}
	}
	return ok, badU, badV
}

// SizeTail runs the construction over many seeds and reports the realized
// sizes — the object of the FGdV22/Section 6 open question (is the
// O(n^{1+1/k}) size bound achievable with high probability, not just in
// expectation?). The caller compares the tail against the expectation
// bound k * n^{1+1/k}.
func SizeTail(g *graph.Graph, k, trials int, seed uint64) []int {
	sizes := make([]int, 0, trials)
	for trial := 0; trial < trials; trial++ {
		r := BaswanaSen(g, k, seed+uint64(trial)*0x51a)
		sizes = append(sizes, len(r.Edges))
	}
	sort.Ints(sizes)
	return sizes
}

// ExpectationBound returns the Baswana–Sen expected size bound k·n^{1+1/k}.
func ExpectationBound(n, k int) float64 {
	return float64(k) * math.Pow(float64(n), 1+1.0/float64(k))
}
