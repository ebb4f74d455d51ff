// Package graph provides the undirected-graph substrate used by every
// algorithm in this repository: a compact immutable adjacency structure,
// radius-bounded breadth-first search, ball queries N^k(v) from a vertex or
// a seed set, connected components, induced subgraphs with vertex
// remapping, graph powers, edge subdivision, and structural predicates
// (bipartiteness, girth, eccentricity, diameters).
//
// Vertices are dense integers 0..N-1. Graphs are simple (no self-loops, no
// multi-edges) and immutable after construction; algorithms that "delete"
// vertices operate on an alive-mask or build induced subgraphs, which keeps
// the base structure shareable across goroutines without locks.
//
// Every traversal has one form, a *WithWorkspace method that runs on a
// caller-held Workspace and performs zero allocations once warm. The suffix
// marks that the result aliases the workspace: it is valid until the next
// traversal on the same workspace, so a caller that keeps it must copy it.
// Hot loops hold one Workspace per goroutine; one-shot callers borrow one
// with AcquireWorkspace / ReleaseWorkspace. See Workspace for the ownership
// and aliasing rules.
//
// Each traversal shape has exactly one serial loop. The CSR loops are
// methods on *Graph; the only traversal over the View interface is
// ViewBall, the seed-set ball that store snapshots and delta repair run on
// a mutation overlay. Parallelism lives one level up, in the callers that
// fan independent traversals out across internal/par (one Workspace per
// worker) — not inside a single BFS.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected graph in compressed adjacency
// form. Construct one with NewBuilder / Build. The zero value is an empty
// graph with no vertices.
type Graph struct {
	offsets []int32 // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []int32 // concatenated sorted neighbor lists
	m       int     // number of edges
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge. O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// Edges calls fn for every edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// EdgeList returns all edges as [2]int pairs with u < v.
func (g *Graph) EdgeList() [][2]int {
	out := make([][2]int, 0, g.m)
	g.Edges(func(u, v int) { out = append(out, [2]int{u, v}) })
	return out
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M())
}

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// and self-loops are silently dropped, so builders can be fed redundant edge
// streams (e.g. from generators) without pre-deduplication.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Out-of-range endpoints and
// self-loops are ignored.
func (b *Builder) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build finalizes the graph. The builder can be reused afterwards, but any
// further AddEdge calls do not affect already-built graphs.
func (b *Builder) Build() *Graph {
	// Sort and deduplicate edge list.
	slices.SortFunc(b.edges, compareEdges)
	dedup := b.edges[:0]
	var prev [2]int32 = [2]int32{-1, -1}
	for _, e := range b.edges {
		if e != prev {
			dedup = append(dedup, e)
			prev = e
		}
	}
	b.edges = dedup

	deg := make([]int32, b.n)
	for _, e := range b.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	offsets := make([]int32, b.n+1)
	for i := 0; i < b.n; i++ {
		offsets[i+1] = offsets[i] + deg[i]
	}
	adj := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range b.edges {
		adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	// Neighbor lists are already sorted because edges were emitted in sorted
	// order for the first endpoint, but second-endpoint insertions interleave;
	// sort each list to guarantee the invariant HasEdge relies on.
	g := &Graph{offsets: offsets, adj: adj, m: len(b.edges)}
	for v := 0; v < b.n; v++ {
		slices.Sort(adj[offsets[v]:offsets[v+1]])
	}
	return g
}

// compareEdges orders edge pairs lexicographically.
func compareEdges(a, b [2]int32) int {
	if a[0] != b[0] {
		return int(a[0]) - int(b[0])
	}
	return int(a[1]) - int(b[1])
}

// CSR exposes the raw compressed-sparse-row arrays: offsets has length N()+1
// and adj holds the concatenated sorted neighbor lists. Both slices alias
// internal storage and must not be modified. This is the stable wire form
// used by internal/graphio for streaming serialization and fingerprinting.
func (g *Graph) CSR() (offsets, adj []int32) {
	return g.offsets, g.adj
}

// FromCSR constructs a Graph directly from compressed-sparse-row arrays,
// validating the representation invariants the rest of the package relies
// on: len(offsets) >= 1, offsets monotone with offsets[0] == 0 and
// offsets[n] == len(adj), every neighbor in range, each list strictly
// sorted (no duplicate edges), no self-loops, and adjacency symmetry. The
// arrays are retained (not copied); callers must not modify them afterwards.
func FromCSR(offsets, adj []int32) (*Graph, error) {
	if len(offsets) == 0 || offsets[0] != 0 {
		return nil, fmt.Errorf("graph: CSR offsets must start with 0 (len %d)", len(offsets))
	}
	n := len(offsets) - 1
	if int(offsets[n]) != len(adj) {
		return nil, fmt.Errorf("graph: CSR offsets[n]=%d != len(adj)=%d", offsets[n], len(adj))
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("graph: CSR offsets not monotone at vertex %d", v)
		}
		nb := adj[offsets[v]:offsets[v+1]]
		for i, w := range nb {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: neighbor %d of vertex %d out of range [0,%d)", w, v, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: self-loop on vertex %d", v)
			}
			if i > 0 && nb[i-1] >= w {
				return nil, fmt.Errorf("graph: adjacency of vertex %d not strictly sorted at position %d", v, i)
			}
		}
	}
	g := &Graph{offsets: offsets, adj: adj, m: len(adj) / 2}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: odd adjacency length %d cannot be symmetric", len(adj))
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if !g.HasEdge(int(w), v) {
				return nil, fmt.Errorf("graph: asymmetric edge %d->%d", v, w)
			}
		}
	}
	return g, nil
}

// FromEdges builds a graph on n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// View is the minimal read-only adjacency surface a traversal needs: the
// vertex count and per-vertex sorted neighbor lists. Graph implements it
// directly; store snapshots implement it over a base CSR plus a mutation
// overlay, so point queries can run against a mutated graph without
// materializing a new CSR. Neighbor slices returned through a View alias
// internal storage and must not be modified.
type View interface {
	N() int
	Neighbors(v int) []int32
}

var _ View = (*Graph)(nil)

// Unreachable is the distance value reported for vertices not reached by a
// bounded or disconnected BFS.
const Unreachable = int32(-1)

// Subdivide returns the graph obtained by replacing every edge {u, v} with a
// path u - w_1 - ... - w_{extra} - v of extra new internal vertices (so the
// path has length extra+1). extra = 0 returns an isomorphic copy. This is
// the reduction used in Theorems B.3 and B.7 with extra = 2x.
func (g *Graph) Subdivide(extra int) *Graph {
	if extra < 0 {
		extra = 0
	}
	n := g.N()
	b := NewBuilder(n + extra*g.M())
	next := n
	g.Edges(func(u, v int) {
		if extra == 0 {
			b.AddEdge(u, v)
			return
		}
		prev := u
		for i := 0; i < extra; i++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
		b.AddEdge(prev, v)
	})
	return b.Build()
}

// IsBipartite reports whether the graph is bipartite, and if so returns a
// valid 2-coloring (side[v] in {0, 1}); otherwise side is nil.
func (g *Graph) IsBipartite() (bool, []int8) {
	side := make([]int8, g.N())
	for i := range side {
		side[i] = -1
	}
	var queue []int32
	for s := 0; s < g.N(); s++ {
		if side[s] != -1 {
			continue
		}
		side[s] = 0
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(int(v)) {
				if side[w] == -1 {
					side[w] = 1 - side[v]
					queue = append(queue, w)
				} else if side[w] == side[v] {
					return false, nil
				}
			}
		}
	}
	return true, side
}

// Girth returns the length of a shortest cycle, or -1 for a forest.
// O(n·m) BFS-based bound; fine at laptop scale.
func (g *Graph) Girth() int {
	best := -1
	dist := make([]int32, g.N())
	parent := make([]int32, g.N())
	for s := 0; s < g.N(); s++ {
		for i := range dist {
			dist[i] = Unreachable
			parent[i] = -1
		}
		dist[s] = 0
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if best >= 0 && int(dist[v])*2 >= best {
				// No shorter cycle through s can be found beyond this depth.
				continue
			}
			for _, w := range g.Neighbors(int(v)) {
				if w == parent[v] {
					// Skip the tree edge back to the parent once; parallel
					// edges are impossible in a simple graph.
					parent[v] = -2 // consume the single back-edge allowance
					continue
				}
				if dist[w] == Unreachable {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
				} else {
					// Non-tree edge closes a cycle of length d(v)+d(w)+1.
					c := int(dist[v] + dist[w] + 1)
					if best < 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}
