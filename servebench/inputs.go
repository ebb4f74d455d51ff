package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
)

// input is one generated graph: its edge list (u < v, no duplicates) and
// the edge-list bytes the program receives. The benchmark keeps its own
// adjacency so that output checks never trust the program's graph code.
type input struct {
	name  string
	n     int
	edges [][2]int32
	bytes []byte
}

// gnpLike samples m = n*deg/2 distinct uniform pairs: the G(n, m) twin of
// G(n, p) at p = deg/(n-1), built in expected O(m) time.
func gnpLike(name string, n, deg int, rng *rand.Rand) *input {
	m := n * deg / 2
	seen := make(map[uint64]struct{}, m)
	edges := make([][2]int32, 0, m)
	for len(edges) < m {
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := uint64(u)<<32 | uint64(v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		edges = append(edges, [2]int32{u, v})
	}
	return newInput(name, n, edges)
}

// torus is the rows x cols wrap-around grid: every vertex has degree 4 and
// the diameter is (rows+cols)/2, long where GNP's is logarithmic.
func torus(name string, rows, cols int) *input {
	n := rows * cols
	edges := make([][2]int32, 0, 2*n)
	id := func(r, c int) int32 { return int32((r%rows)*cols + c%cols) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for _, w := range [2]int32{id(r, c+1), id(r+1, c)} {
				u, v := id(r, c), w
				if u > v {
					u, v = v, u
				}
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	return newInput(name, n, edges)
}

func newInput(name string, n int, edges [][2]int32) *input {
	return &input{name: name, n: n, edges: edges, bytes: edgeListBytes(n, edges)}
}

// edgeListBytes renders the graphio "el" format: an "n m" header, then one
// "u v" line per edge.
func edgeListBytes(n int, edges [][2]int32) []byte {
	var b bytes.Buffer
	b.Grow(len(edges) * 12)
	fmt.Fprintf(&b, "%d %d\n", n, len(edges))
	var line []byte
	for _, e := range edges {
		line = strconv.AppendInt(line[:0], int64(e[0]), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(e[1]), 10)
		line = append(line, '\n')
		b.Write(line)
	}
	return b.Bytes()
}

// adjacency is the benchmark's own CSR view of an edge list, used by the
// output checks.
type adjacency struct {
	off []int32
	nbr []int32
}

func newAdjacency(n int, edges [][2]int32) *adjacency {
	deg := make([]int32, n+1)
	for _, e := range edges {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	nbr := make([]int32, 2*len(edges))
	fill := slices.Clone(deg[:n])
	for _, e := range edges {
		nbr[fill[e[0]]] = e[1]
		fill[e[0]]++
		nbr[fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	return &adjacency{off: deg, nbr: nbr}
}

func (a *adjacency) n() int { return len(a.off) - 1 }

func (a *adjacency) neighbors(v int32) []int32 { return a.nbr[a.off[v]:a.off[v+1]] }

// ball returns the vertices within radius hops of src, sorted.
func (a *adjacency) ball(src int32, radius int) []int32 {
	dist := map[int32]int{src: 0}
	frontier := []int32{src}
	for d := 1; d <= radius && len(frontier) > 0; d++ {
		var next []int32
		for _, u := range frontier {
			for _, w := range a.neighbors(u) {
				if _, ok := dist[w]; !ok {
					dist[w] = d
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	out := make([]int32, 0, len(dist))
	for v := range dist {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// edgeSet tracks the live edge set of a mutating graph so that the checks
// can rebuild the graph at any acknowledged epoch.
type edgeSet map[uint64]struct{}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newEdgeSet(edges [][2]int32) edgeSet {
	s := make(edgeSet, len(edges))
	for _, e := range edges {
		s[edgeKey(e[0], e[1])] = struct{}{}
	}
	return s
}

// list returns the edges in sorted order, so equal sets give equal bytes.
func (s edgeSet) list() [][2]int32 {
	keys := make([]uint64, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([][2]int32, len(keys))
	for i, k := range keys {
		out[i] = [2]int32{int32(k >> 32), int32(uint32(k))}
	}
	return out
}
