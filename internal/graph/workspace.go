package graph

import (
	"math"
	"slices"
	"sync"
)

// Workspace holds the reusable scratch state for the traversal primitives:
// an epoch-stamped visited array (O(1) reset), a distance array with a
// dirty-list reset, a preallocated queue that doubles as the BFS-order
// output buffer, reusable layer headers, a dense old→new Remap, and the
// storage backing InducedWithWorkspace results. After a few warm-up calls a
// Workspace makes every *WithWorkspace traversal allocation-free.
//
// Ownership rule: a Workspace must be owned by exactly one goroutine at a
// time. Concurrent traversals must each use their own Workspace (the graph
// itself is immutable and freely shared). Results returned by
// *WithWorkspace methods alias Workspace storage and are valid only until
// the next call on the same Workspace; callers that need to retain a result
// must copy it.
type Workspace struct {
	// epoch-stamped visited marks: stamp[v] == epoch means "seen in the
	// current traversal".
	stamp []int32
	epoch int32

	// dist is maintained all-Unreachable between calls; the dirty list
	// records which entries the previous BFS touched so the next call
	// resets O(visited), not O(n).
	dist      []int32
	distDirty []int32

	// queue is the BFS queue; for ball queries the output buffer itself is
	// the queue (BFS order == queue order).
	queue []int32
	out   []int32
	// layers holds reusable layer headers; each header subslices out.
	layers [][]int32

	// comp is the id array ComponentsAliveWithWorkspace returns; callers
	// read it in place until the next components call.
	comp []int32

	// Remap is the dense old→new vertex id map used by
	// InducedWithWorkspace; it is reset at the start of that call but is
	// otherwise free for callers to use between traversals.
	Remap Remap

	// Induced storage: the result graph of InducedWithWorkspace is built in
	// place from these buffers.
	newToOld   []int32
	indOffsets []int32
	indAdj     []int32
	indCursor  []int32
	indG       Graph
}

// NewWorkspace returns a Workspace pre-sized for graphs of up to n
// vertices. Buffers grow on demand, so n = 0 is a valid starting point.
func NewWorkspace(n int) *Workspace {
	ws := &Workspace{}
	ws.Reserve(n)
	return ws
}

// Reserve grows the vertex-indexed buffers to hold n vertices. It is called
// automatically by every traversal; explicit calls just pre-warm.
func (ws *Workspace) Reserve(n int) {
	if n <= len(ws.stamp) {
		return
	}
	old := len(ws.stamp)
	ws.stamp = append(ws.stamp, make([]int32, n-old)...)
	grown := make([]int32, n-len(ws.dist))
	for i := range grown {
		grown[i] = Unreachable
	}
	ws.dist = append(ws.dist, grown...)
	if cap(ws.comp) < n {
		ws.comp = make([]int32, n)
	}
}

// beginStamp starts a new traversal epoch and returns the stamp array and
// the fresh epoch value.
func (ws *Workspace) beginStamp() ([]int32, int32) {
	if ws.epoch == math.MaxInt32 {
		for i := range ws.stamp {
			ws.stamp[i] = 0
		}
		ws.epoch = 0
	}
	ws.epoch++
	return ws.stamp, ws.epoch
}

// resetDist restores the all-Unreachable invariant on dist by clearing
// only the entries dirtied by the previous BFS.
func (ws *Workspace) resetDist() {
	for _, v := range ws.distDirty {
		ws.dist[v] = Unreachable
	}
	ws.distDirty = ws.distDirty[:0]
}

// wsPool lends workspaces to one-shot callers that hold no workspace of
// their own; see AcquireWorkspace.
var wsPool = sync.Pool{New: func() any { return NewWorkspace(0) }}

// AcquireWorkspace takes a Workspace from the shared pool. Pair with
// ReleaseWorkspace. Useful for one-shot call sites that want reuse without
// managing a long-lived workspace of their own; hoist the pair out of any
// per-vertex or per-cluster loop.
func AcquireWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// ReleaseWorkspace returns a workspace to the shared pool. The caller must
// not use the workspace, or any result aliasing it, afterwards.
func ReleaseWorkspace(ws *Workspace) { wsPool.Put(ws) }

// --- BFS ------------------------------------------------------------------

// BFSBoundedWithWorkspace computes distances from src up to the given
// radius (inclusive). A negative radius means unbounded. dist[v] ==
// Unreachable for vertices beyond the radius or in other components. The
// returned slice aliases the workspace and is valid until its next use.
func (g *Graph) BFSBoundedWithWorkspace(ws *Workspace, src, radius int) []int32 {
	n := g.N()
	ws.Reserve(n)
	ws.resetDist()
	dist := ws.dist[:n]
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	q := append(ws.queue[:0], int32(src))
	for head := 0; head < len(q); head++ {
		v := q[head]
		d := dist[v]
		if radius >= 0 && int(d) >= radius {
			continue
		}
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] == Unreachable {
				dist[w] = d + 1
				q = append(q, w)
			}
		}
	}
	// The dirtied dist entries are exactly the queue contents: swap the two
	// buffers instead of copying (distDirty was emptied by resetDist above).
	ws.queue, ws.distDirty = ws.distDirty[:0], q
	return dist
}

// --- Balls and layers -----------------------------------------------------

// BallAliveWithWorkspace returns the vertices of N^k(v) = {u : dist(u,v)
// <= k} in the subgraph induced by vertices u with alive[u] == true, in BFS
// order (hence sorted by distance), including v itself. A nil alive mask
// means all vertices are alive. If v itself is dead the ball is empty
// (nil). The output buffer doubles as the BFS queue, so a warm call
// performs zero allocations. The result aliases the workspace.
func (g *Graph) BallAliveWithWorkspace(ws *Workspace, v, k int, alive []bool) []int32 {
	if v < 0 || v >= g.N() {
		return nil
	}
	seed := [1]int32{int32(v)}
	return g.ballCore(ws, seed[:], k, alive, false)
}

// BallLayersWithWorkspace returns the layers S_0, S_1, ..., S_k of the BFS
// from v in the alive-induced subgraph: S_j is the set of alive vertices at
// distance exactly j from v. Trailing empty layers are trimmed, and a dead
// v gives nil. The layers subslice a single flat buffer and the headers are
// reused, so a warm call performs zero allocations. The result aliases the
// workspace.
func (g *Graph) BallLayersWithWorkspace(ws *Workspace, v, k int, alive []bool) [][]int32 {
	if v < 0 || v >= g.N() {
		return nil
	}
	seed := [1]int32{int32(v)}
	return g.BallLayersFromSetWithWorkspace(ws, seed[:], k, alive)
}

// BallLayersFromSetWithWorkspace generalizes BallLayersWithWorkspace to a
// multi-source seed set: layer 0 is the deduplicated alive subset of seeds
// (in input order), layer j the alive vertices at distance exactly j from
// it. Returns nil when no seed is alive. The result aliases the workspace.
func (g *Graph) BallLayersFromSetWithWorkspace(ws *Workspace, seeds []int32, radius int, alive []bool) [][]int32 {
	if g.ballCore(ws, seeds, radius, alive, true) == nil {
		return nil
	}
	return ws.layers
}

// BallFromSetWithWorkspace returns the flattened layers of
// BallLayersFromSetWithWorkspace; the result aliases the workspace.
func (g *Graph) BallFromSetWithWorkspace(ws *Workspace, seeds []int32, radius int, alive []bool) []int32 {
	return g.ballCore(ws, seeds, radius, alive, false)
}

// ballCore is the one CSR ball loop: layer 0 is the deduplicated alive
// subset of seeds, and each further level appends the newly reached alive
// vertices to the flat buffer ws.out, which doubles as the BFS queue. It
// returns the flat ball (nil when no seed is alive). With keepLayers it
// also fills ws.layers with one subslice of the buffer per layer; the
// flat-ball callers skip those headers, which on long thin balls cost as
// much as the expansion itself.
func (g *Graph) ballCore(ws *Workspace, seeds []int32, radius int, alive []bool, keepLayers bool) []int32 {
	ws.Reserve(g.N())
	seen, epoch := ws.beginStamp()
	out := ws.out[:0]
	for _, s := range seeds {
		if seen[s] == epoch || (alive != nil && !alive[s]) {
			continue
		}
		seen[s] = epoch
		out = append(out, s)
	}
	if len(out) == 0 {
		ws.out = out
		return nil
	}
	layers := ws.layers[:0]
	if keepLayers {
		layers = append(layers, out[0:len(out):len(out)])
	}
	start, end := 0, len(out)
	for d := 0; d < radius && start < end; d++ {
		for i := start; i < end; i++ {
			for _, w := range g.Neighbors(int(out[i])) {
				if seen[w] == epoch || (alive != nil && !alive[w]) {
					continue
				}
				seen[w] = epoch
				out = append(out, w)
			}
		}
		if keepLayers && len(out) > end {
			layers = append(layers, out[end:len(out):len(out)])
		}
		start, end = end, len(out)
	}
	ws.out = out
	ws.layers = layers
	return out
}

// ViewBall returns the vertices within distance radius of the seed set in
// v, in BFS order: the deduplicated in-range seeds (input order) first,
// then each layer in discovery order — the order BallFromSetWithWorkspace
// gives on a CSR graph. Returns nil when no seed is in range. It is the one
// traversal over the View interface, for adjacency that is not a CSR (store
// snapshots serve it through a mutation overlay); the result aliases ws
// and is valid until its next use.
func ViewBall(ws *Workspace, v View, seeds []int32, radius int) []int32 {
	n := v.N()
	ws.Reserve(n)
	seen, epoch := ws.beginStamp()
	out := ws.out[:0]
	for _, s := range seeds {
		if s < 0 || int(s) >= n || seen[s] == epoch {
			continue
		}
		seen[s] = epoch
		out = append(out, s)
	}
	start, end := 0, len(out)
	for d := 0; d < radius && start < end; d++ {
		for i := start; i < end; i++ {
			for _, w := range v.Neighbors(int(out[i])) {
				if seen[w] != epoch {
					seen[w] = epoch
					out = append(out, w)
				}
			}
		}
		start, end = end, len(out)
	}
	ws.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// --- Components -----------------------------------------------------------

// ComponentsAliveWithWorkspace returns the connected-component id of each
// vertex in the alive-induced subgraph and the number of components. Ids
// are dense, 0-based, in order of first discovery; dead vertices get
// component id -1. A nil alive mask means all vertices are alive. The
// result aliases the workspace.
func (g *Graph) ComponentsAliveWithWorkspace(ws *Workspace, alive []bool) (comp []int32, count int) {
	n := g.N()
	ws.Reserve(n)
	comp = ws.comp[:n]
	for i := range comp {
		comp[i] = -1
	}
	q := ws.queue[:0]
	for s := 0; s < n; s++ {
		if comp[s] != -1 || (alive != nil && !alive[s]) {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		q = append(q[:0], int32(s))
		for head := 0; head < len(q); head++ {
			v := q[head]
			for _, w := range g.Neighbors(int(v)) {
				if comp[w] == -1 && (alive == nil || alive[w]) {
					comp[w] = id
					q = append(q, w)
				}
			}
		}
	}
	ws.queue = q
	return comp, count
}

// --- Induced and Power ----------------------------------------------------

// InducedWithWorkspace builds the subgraph induced by the given vertex set.
// It returns the new graph and the mapping newID -> oldID; new ids follow
// first appearance in the input, and duplicates are collapsed. The old→new
// mapping uses the workspace's dense Remap instead of a hash map, and the
// result graph is built directly in CSR form inside workspace-owned
// buffers. Both returned values alias the workspace and are valid until its
// next InducedWithWorkspace call.
func (g *Graph) InducedWithWorkspace(ws *Workspace, vertices []int32) (*Graph, []int32) {
	ws.Reserve(g.N())
	rm := &ws.Remap
	rm.Reset(g.N())
	newToOld := ws.newToOld[:0]
	for _, v := range vertices {
		if rm.Has(v) {
			continue
		}
		rm.Set(v, int32(len(newToOld)))
		newToOld = append(newToOld, v)
	}
	ws.newToOld = newToOld
	n2 := len(newToOld)

	offsets := growInt32(ws.indOffsets, n2+1)
	for i := range offsets {
		offsets[i] = 0
	}
	for newU, oldU := range newToOld {
		deg := int32(0)
		for _, w := range g.Neighbors(int(oldU)) {
			if rm.Has(w) {
				deg++
			}
		}
		offsets[newU+1] = deg
	}
	for i := 0; i < n2; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := growInt32(ws.indAdj, int(offsets[n2]))
	cursor := growInt32(ws.indCursor, n2)
	copy(cursor, offsets[:n2])
	for _, oldU := range newToOld {
		newU, _ := rm.Get(oldU)
		for _, w := range g.Neighbors(int(oldU)) {
			if nw, ok := rm.Get(w); ok {
				adj[cursor[newU]] = nw
				cursor[newU]++
			}
		}
	}
	// New ids follow input order, not old-id order, so each adjacency list
	// must be re-sorted to restore the Graph invariant.
	for u := 0; u < n2; u++ {
		slices.Sort(adj[offsets[u]:offsets[u+1]])
	}
	ws.indOffsets, ws.indAdj, ws.indCursor = offsets, adj, cursor
	ws.indG = Graph{offsets: offsets, adj: adj, m: int(offsets[n2]) / 2}
	return &ws.indG, newToOld
}

// PowerWithWorkspace returns the k-th power graph G^k: same vertex set, an
// edge between any two distinct vertices at distance <= k in G. For k <= 1
// it returns g itself (Graph is immutable). Quadratic in ball sizes;
// intended for the moderate k used by the GKM baseline. The per-vertex ball
// queries run on the workspace, but the returned graph is freshly allocated
// (it does not alias the workspace).
func (g *Graph) PowerWithWorkspace(ws *Workspace, k int) *Graph {
	if k <= 1 {
		return g
	}
	b := NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.BallAliveWithWorkspace(ws, v, k, nil) {
			if int(u) > v {
				b.AddEdge(v, int(u))
			}
		}
	}
	return b.Build()
}

// growInt32 returns buf resized to n, reusing capacity when possible.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// --- Eccentricity and diameters -------------------------------------------

// EccentricityWithWorkspace returns max_u dist(v, u) within v's component.
func (g *Graph) EccentricityWithWorkspace(ws *Workspace, v int) int {
	dist := g.BFSBoundedWithWorkspace(ws, v, -1)
	best := 0
	for _, d := range dist {
		if int(d) > best {
			best = int(d)
		}
	}
	return best
}

// DiameterWithWorkspace returns the maximum eccentricity over all
// vertices, treating each connected component separately and returning the
// max over components. Returns 0 for an empty or edgeless graph.
func (g *Graph) DiameterWithWorkspace(ws *Workspace) int {
	best := 0
	for s := 0; s < g.N(); s++ {
		dist := g.BFSBoundedWithWorkspace(ws, s, -1)
		for _, d := range dist {
			if int(d) > best {
				best = int(d)
			}
		}
	}
	return best
}

// WeakDiameterWithWorkspace returns max over u,v in S of dist_G(u, v):
// distances are measured in the whole graph g, not the induced subgraph.
// Returns -1 if some pair of S is disconnected in g.
func (g *Graph) WeakDiameterWithWorkspace(ws *Workspace, s []int32) int {
	best := 0
	for _, v := range s {
		dist := g.BFSBoundedWithWorkspace(ws, int(v), -1)
		for _, u := range s {
			d := dist[u]
			if d == Unreachable {
				return -1
			}
			if int(d) > best {
				best = int(d)
			}
		}
	}
	return best
}

// StrongDiameterWithWorkspace returns the diameter of the subgraph induced
// by S, or -1 if that subgraph is disconnected. It uses the workspace's
// Induced buffers and traversal buffers back to back; the two sets do not
// overlap, so a single workspace suffices.
func (g *Graph) StrongDiameterWithWorkspace(ws *Workspace, s []int32) int {
	sub, _ := g.InducedWithWorkspace(ws, s)
	_, count := sub.ComponentsAliveWithWorkspace(ws, nil)
	if count > 1 {
		return -1
	}
	return sub.DiameterWithWorkspace(ws)
}

// --- Dense remap ----------------------------------------------------------

// Remap is a dense, epoch-stamped old→new id map: a drop-in replacement for
// the map[int32]int32 pattern with O(1) reset and no hashing. The zero
// value is ready to use.
type Remap struct {
	ids   []int32
	stamp []int32
	epoch int32
}

// Reset clears the map and sizes it for keys in [0, n).
func (r *Remap) Reset(n int) {
	if n > len(r.ids) {
		r.ids = make([]int32, n)
		r.stamp = make([]int32, n)
		r.epoch = 0
	}
	if r.epoch == math.MaxInt32 {
		for i := range r.stamp {
			r.stamp[i] = 0
		}
		r.epoch = 0
	}
	r.epoch++
}

// Set records old → new.
func (r *Remap) Set(old, new int32) {
	r.ids[old] = new
	r.stamp[old] = r.epoch
}

// Get returns the mapping for old and whether it is present.
func (r *Remap) Get(old int32) (int32, bool) {
	if r.stamp[old] != r.epoch {
		return 0, false
	}
	return r.ids[old], true
}

// Has reports whether old has a mapping.
func (r *Remap) Has(old int32) bool { return r.stamp[old] == r.epoch }
