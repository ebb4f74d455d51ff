// Example: approximate MaxCut via low-diameter decomposition, and the
// matching lower bound.
//
//	go run ./examples/maxcut
//
// MaxCut is one of the four problems of Theorem 1.4. The decomposition
// recipe from Section 1.1 applies: decompose with parameter ε, solve each
// cluster's MaxCut exactly (here: clusters of a bipartite graph, where the
// 2-coloring cuts every edge), assign deleted vertices greedily. Only the
// O(ε·m) edges incident to deleted vertices can be lost, so the cut is
// (1-O(ε))-optimal on bipartite graphs where OPT = m.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func main() {
	g := gen.Grid(25, 25) // bipartite: OPT = m
	eps := 0.15
	dec, err := core.Decompose(g, core.DecomposeOptions{Epsilon: eps, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// Per-cluster exact MaxCut via 2-coloring (clusters of a bipartite graph
	// are bipartite); deleted vertices then pick their majority-improving
	// side greedily.
	side := make([]int8, g.N())
	for i := range side {
		side[i] = -1
	}
	ws := graph.NewWorkspace(g.N())
	for _, cluster := range dec.Clusters() {
		sub, back := g.InducedWithWorkspace(ws, cluster)
		ok, coloring := sub.IsBipartite()
		if !ok {
			log.Fatal("cluster of a bipartite graph must be bipartite")
		}
		for i, c := range coloring {
			side[back[i]] = c
		}
	}
	for v := 0; v < g.N(); v++ {
		if side[v] != -1 {
			continue
		}
		// Greedy: join the side cutting more incident edges.
		count := [2]int{}
		for _, w := range g.Neighbors(v) {
			if side[w] >= 0 {
				count[side[w]]++
			}
		}
		if count[0] >= count[1] {
			side[v] = 1
		} else {
			side[v] = 0
		}
	}
	cut := cutSize(g, side)
	fmt.Printf("graph: %v (bipartite, OPT = %d)\n", g, g.M())
	fmt.Printf("decomposition: %d clusters, %.1f%% deleted\n",
		dec.NumClusters, 100*dec.UnclusteredFraction())
	fmt.Printf("cut: %d of %d edges = %.4f of OPT (target >= %.2f)\n",
		cut, g.M(), float64(cut)/float64(g.M()), 1-2*eps)
	fmt.Println()
	fmt.Println("lower bound (Thm B.6/B.7): no o(log n / eps)-round algorithm reaches (1-eps)·OPT")
	fmt.Println("on all graphs — see cmd/lowerbound for the indistinguishability experiment.")
}

func cutSize(g *graph.Graph, side []int8) int {
	cut := 0
	g.Edges(func(u, v int) {
		if side[u] != side[v] {
			cut++
		}
	})
	return cut
}
