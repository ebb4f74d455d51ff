package ldd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// ErrRepairFallback reports that a delta repair declined to produce a
// result — the delta touched too much of the graph, a repaired cluster
// failed certification, or the repaired quality would not match a fresh
// run — and the caller should fall back to a full recompute. Test with
// errors.Is.
var ErrRepairFallback = errors.New("ldd: delta repair needs full recompute")

// EdgeDelta is the net edge difference between the graph a cached result
// was computed on (the ancestor) and the graph being served: Added edges
// are present now but not then, Removed edges the reverse. Endpoints are
// normalized U < V and each edge appears at most once on one side (callers
// collapse raw mutation logs — an add followed by a delete of the same
// edge nets out to nothing).
type EdgeDelta struct {
	Added   [][2]int32
	Removed [][2]int32
}

// Size returns the number of net edge changes.
func (d EdgeDelta) Size() int { return len(d.Added) + len(d.Removed) }

// Empty reports whether the two graph versions have identical edge sets.
func (d EdgeDelta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// RepairDeltaParams tunes RepairDelta. The zero value of each field selects
// the documented default.
type RepairDeltaParams struct {
	// Epsilon is the quality parameter of the decomposition being repaired;
	// re-carved regions use SequentialLDD(Epsilon/2) exactly like
	// RepairDiameterCtx, so repaired clusters meet the same strong-diameter
	// construction bound. <= 0 means 0.5 (derive's clamp).
	Epsilon float64
	// WeakBound is the weak-diameter budget certified for every cluster the
	// repair keeps across an edge deletion (Params.WeakDiameterBound for
	// Theorem 1.1 decompositions). <= 0 disables certificates, forcing
	// every deletion-touched cluster to be re-carved.
	WeakBound int
	// MaxRegionFrac caps the re-carved region as a fraction of n; a larger
	// affected region falls back to a full recompute (repair would not be
	// meaningfully cheaper). <= 0 means 0.5.
	MaxRegionFrac float64
	// MaxUnclusteredFrac caps the repaired result's unclustered fraction —
	// the quality invariant a fresh run guarantees. <= 0 means Epsilon.
	MaxUnclusteredFrac float64
}

// RepairReport describes what a delta repair did, for observability.
type RepairReport struct {
	// Certified counts deletion-touched clusters kept in place because a
	// single-BFS weak-diameter certificate proved them still within budget.
	Certified int
	// Recarved counts clusters dissolved into the re-carve region.
	Recarved int
	// Region is the number of vertices re-carved.
	Region int
	// NewClusters counts clusters produced by the re-carve (for covers:
	// patch clusters appended).
	NewClusters int
}

// WeakDiameterBound returns the weak-diameter budget a Theorem 1.1 run
// under p on an n-vertex graph stays within: carve clusters are unions of
// balls whose radii telescope over the iteration intervals (≤ Σ 2·b_i),
// and Phase-3 Elkin–Neiman clusters have strong diameter ≤ 8·ln(ñ)/λ at
// λ = ε/10. Fresh runs satisfy the bound whp — the churn equivalence
// suite asserts it for both fresh and repaired decompositions, so delta
// repair certifies surviving clusters against the same invariant.
func (p Params) WeakDiameterBound(n int) int {
	d := derive(n, p)
	eps := p.Epsilon
	if eps <= 0 {
		eps = 0.5
	}
	if eps > 1 {
		eps = 1
	}
	carve := 0
	for _, iv := range d.Intervals {
		carve += 2 * iv[1]
	}
	en := int(math.Ceil(80 * d.LnTilde / eps))
	if en > carve {
		return en
	}
	return carve
}

// concreteView unwraps a read view to the CSR graph a re-carve needs:
// either the view is a *graph.Graph already, or it can materialize one
// (store snapshots). Only the re-carve path pays for materialization —
// certificate-only repairs run entirely on the view.
func concreteView(v graph.View) (*graph.Graph, error) {
	switch g := v.(type) {
	case *graph.Graph:
		return g, nil
	case interface{ Graph() *graph.Graph }:
		return g.Graph(), nil
	}
	return nil, fmt.Errorf("%w: view %T cannot materialize a CSR for the re-carve", ErrRepairFallback, v)
}

// RepairDelta repairs a decomposition computed on an ancestor graph onto
// the current graph gv, which differs from the ancestor by delta. Instead
// of rerunning the full pipeline, it classifies each net edge change by
// how it can break the decomposition's invariants and touches only the
// incident clusters:
//
//   - An added edge whose endpoints lie in two distinct clusters breaks
//     separation (Definition 1.4): both clusters are re-carved. Added
//     edges inside one cluster or touching unclustered vertices break
//     nothing.
//   - A removed edge inside one cluster can only stretch (or disconnect)
//     that cluster: a single-BFS certificate checks every member is still
//     within WeakBound/2 of one member, which bounds the weak diameter by
//     WeakBound without re-carving. Failed certificates re-carve. Removed
//     edges between clusters or off-cluster only widen separation.
//
// The affected clusters are dissolved into a region and re-carved with
// SequentialLDD(Epsilon/2) — the same machinery as RepairDiameterCtx, so
// re-carved clusters meet the strong-diameter construction bound while
// boundary vertices become eligible for re-assignment. Untouched clusters
// are spliced through unchanged; separation between the re-carved region
// and the rest is then re-validated explicitly, and the repaired result
// must keep the unclustered fraction within MaxUnclusteredFrac.
//
// Returns ErrRepairFallback (wrapped, test with errors.Is) when the delta
// is malformed, the affected region exceeds MaxRegionFrac·n, or a quality
// invariant would be violated; the caller recomputes from scratch. When
// nothing is affected the input decomposition is returned unchanged (it is
// immutable and safe to share).
//
// gv is a read view of the current graph — a *graph.Graph or a store
// snapshot. Certificates and separation checks run directly on the view;
// a CSR is materialized (Snapshot.Graph) only when a re-carve is needed,
// which keeps certificate-only repairs free of the O(n+m) materialization
// that dominates a full recompute's setup.
func RepairDelta(ctx context.Context, gv graph.View, old *Decomposition, delta EdgeDelta, p RepairDeltaParams) (*Decomposition, *RepairReport, error) {
	n := gv.N()
	if len(old.ClusterOf) != n {
		return nil, nil, fmt.Errorf("%w: decomposition is over %d vertices, graph has %d", ErrRepairFallback, len(old.ClusterOf), n)
	}
	eps := p.Epsilon
	if eps <= 0 {
		eps = 0.5
	}
	if eps > 1 {
		eps = 1
	}
	maxUnc := p.MaxUnclusteredFrac
	if maxUnc <= 0 {
		maxUnc = eps
	}
	maxRegion := p.MaxRegionFrac
	if maxRegion <= 0 {
		maxRegion = 0.5
	}

	affected := make([]bool, old.NumClusters)
	var certCand []int32 // deletion-touched clusters to certify, deduped
	onList := make([]bool, old.NumClusters)
	for _, e := range delta.Added {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, nil, fmt.Errorf("%w: delta edge {%d,%d} out of range", ErrRepairFallback, u, v)
		}
		cu, cv := old.ClusterOf[u], old.ClusterOf[v]
		if int(cu) >= old.NumClusters || int(cv) >= old.NumClusters {
			return nil, nil, fmt.Errorf("%w: cluster id out of range", ErrRepairFallback)
		}
		if cu >= 0 && cv >= 0 && cu != cv {
			affected[cu] = true
			affected[cv] = true
		}
	}
	for _, e := range delta.Removed {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, nil, fmt.Errorf("%w: delta edge {%d,%d} out of range", ErrRepairFallback, u, v)
		}
		cu, cv := old.ClusterOf[u], old.ClusterOf[v]
		if int(cu) >= old.NumClusters || int(cv) >= old.NumClusters {
			return nil, nil, fmt.Errorf("%w: cluster id out of range", ErrRepairFallback)
		}
		if cu >= 0 && cu == cv && !onList[cu] {
			onList[cu] = true
			certCand = append(certCand, cu)
		}
	}

	rep := &RepairReport{}
	clusters := old.Clusters()
	if len(certCand) > 0 && p.WeakBound > 0 {
		ws := graph.AcquireWorkspace()
		for _, cid := range certCand {
			if affected[cid] {
				continue
			}
			if certifyWeakDiameter(gv, ws, clusters[cid], old.ClusterOf, cid, p.WeakBound) {
				rep.Certified++
				continue
			}
			affected[cid] = true
		}
		graph.ReleaseWorkspace(ws)
	} else {
		for _, cid := range certCand {
			affected[cid] = true
		}
	}

	region := 0
	for cid, hit := range affected {
		if hit {
			rep.Recarved++
			region += len(clusters[cid])
		}
	}
	if rep.Recarved == 0 {
		return old, rep, nil
	}
	rep.Region = region
	if float64(region) > maxRegion*float64(n) {
		return nil, nil, fmt.Errorf("%w: affected region %d of %d vertices exceeds cap %.2f", ErrRepairFallback, region, n, maxRegion)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Dissolve the affected clusters and re-carve the region in the new
	// graph. Every mask vertex ends up in a sub-cluster or deleted, so the
	// overwrite below covers the whole region. The re-carve is the one path
	// that needs a concrete CSR (SequentialLDD's workspace traversals).
	g, err := concreteView(gv)
	if err != nil {
		return nil, nil, err
	}
	mask := make([]bool, n)
	for cid, hit := range affected {
		if !hit {
			continue
		}
		for _, v := range clusters[cid] {
			mask[v] = true
		}
	}
	subClusters, dead := SequentialLDD(g, mask, eps/2)
	out := &Decomposition{
		ClusterOf: append([]int32(nil), old.ClusterOf...),
		Rounds:    old.Rounds, // local recomputation is free in LOCAL
	}
	for i, sc := range subClusters {
		id := int32(old.NumClusters + i) // temporary id, compacted below
		for _, v := range sc {
			out.ClusterOf[v] = id
		}
	}
	for _, v := range dead {
		out.ClusterOf[v] = Unclustered
	}
	rep.NewClusters = len(subClusters)
	out.NumClusters = relabel(out.ClusterOf)

	// Re-validate separation on every edge that can have changed it: any
	// new violation is incident to a re-carved vertex or an added edge,
	// and added cross-cluster edges put both endpoints in the region.
	for v := 0; v < n; v++ {
		if !mask[v] {
			continue
		}
		if !separatedAt(g, out.ClusterOf, int32(v)) {
			return nil, nil, fmt.Errorf("%w: re-carve broke separation at vertex %d", ErrRepairFallback, v)
		}
	}
	for _, e := range delta.Added {
		if !separatedAt(g, out.ClusterOf, e[0]) || !separatedAt(g, out.ClusterOf, e[1]) {
			return nil, nil, fmt.Errorf("%w: added edge {%d,%d} broke separation", ErrRepairFallback, e[0], e[1])
		}
	}
	unclustered := 0
	for _, c := range out.ClusterOf {
		if c < 0 {
			unclustered++
		}
	}
	if float64(unclustered) > maxUnc*float64(n)+1 {
		return nil, nil, fmt.Errorf("%w: unclustered fraction %.4f exceeds %.4f", ErrRepairFallback, float64(unclustered)/float64(n), maxUnc)
	}
	return out, rep, nil
}

// certifyWeakDiameter proves cluster cid's weak diameter in gv is at most
// bound with a single BFS: if every member is within bound/2 of members[0]
// (distances in the full graph — weak diameter allows shortcuts through
// other clusters), the triangle inequality bounds all pairwise distances
// by bound. One-sided: a false return means "unproven", not "violated".
// Runs on the View so overlay-backed snapshots certify without a CSR.
func certifyWeakDiameter(gv graph.View, ws *graph.Workspace, members []int32, clusterOf []int32, cid int32, bound int) bool {
	if len(members) <= 1 {
		return true
	}
	seen := 0
	for _, v := range graph.ViewBall(ws, gv, members[:1], bound/2) {
		if clusterOf[v] == cid {
			seen++
		}
	}
	return seen == len(members)
}

// WeakDiameterBound returns the Lemma C.2 weak-diameter bound 8·ln(ñ)/λ
// for a sparse cover under p on an n-vertex graph (with the +1 rounding
// slack the test suite pins). Lambda <= 0 degenerates to n.
func (p ENParams) WeakDiameterBound(n int) int {
	if p.Lambda <= 0 {
		return n
	}
	nTilde := p.NTilde
	if nTilde < n {
		nTilde = n
	}
	return int(math.Ceil(8*lnTilde(nTilde)/p.Lambda)) + 1
}

// RepairCoverParams tunes RepairCoverDelta.
type RepairCoverParams struct {
	// WeakBound is the weak-diameter budget (ENParams.WeakDiameterBound):
	// deletion-touched clusters are certified against it and patch balls
	// are grown to radius WeakBound/2. Must be >= 2.
	WeakBound int
	// MaxPatches caps the number of patch clusters appended per repair;
	// more added cross-cover edges fall back to a full recompute. <= 0
	// means 16.
	MaxPatches int
}

// RepairCoverDelta repairs a sparse cover computed on an ancestor graph
// onto the current graph gv (a read view — certificates and patch balls
// are pure traversals, so cover repair never materializes a CSR). The
// cover invariants respond to edge changes asymmetrically:
//
//   - A removed edge never breaks coverage (a requirement disappeared) but
//     can stretch clusters containing both endpoints; each such cluster is
//     kept via the single-BFS weak-diameter certificate or the repair
//     falls back.
//   - An added edge {u,v} needs some cluster containing both endpoints. If
//     none exists, a patch cluster — the ball N^(WeakBound/2)(u), which
//     contains v and has weak diameter ≤ WeakBound by construction — is
//     appended. Vertex multiplicity can degrade by one per patch (the
//     Geometric(e^-λ) bound holds again after the next full run); callers
//     surface the recomputed multiplicity metrics.
//
// When nothing needs patching the input cover is returned unchanged.
// Returns ErrRepairFallback (test with errors.Is) when a certificate fails
// or the patch budget is exceeded.
func RepairCoverDelta(ctx context.Context, gv graph.View, old *Cover, delta EdgeDelta, p RepairCoverParams) (*Cover, *RepairReport, error) {
	n := gv.N()
	if len(old.MemberOf) != n {
		return nil, nil, fmt.Errorf("%w: cover is over %d vertices, graph has %d", ErrRepairFallback, len(old.MemberOf), n)
	}
	if p.WeakBound < 2 {
		return nil, nil, fmt.Errorf("%w: weak-diameter budget %d is degenerate", ErrRepairFallback, p.WeakBound)
	}
	maxPatches := p.MaxPatches
	if maxPatches <= 0 {
		maxPatches = 16
	}
	for _, e := range delta.Added {
		if e[0] < 0 || e[1] < 0 || int(e[0]) >= n || int(e[1]) >= n {
			return nil, nil, fmt.Errorf("%w: delta edge {%d,%d} out of range", ErrRepairFallback, e[0], e[1])
		}
	}
	for _, e := range delta.Removed {
		if e[0] < 0 || e[1] < 0 || int(e[0]) >= n || int(e[1]) >= n {
			return nil, nil, fmt.Errorf("%w: delta edge {%d,%d} out of range", ErrRepairFallback, e[0], e[1])
		}
	}

	rep := &RepairReport{}
	ws := graph.AcquireWorkspace()
	defer graph.ReleaseWorkspace(ws)
	inBall := make([]bool, n)
	certified := make(map[int32]bool)
	for _, e := range delta.Removed {
		for _, cid := range commonClusters(old.MemberOf[e[0]], old.MemberOf[e[1]], nil) {
			if certified[cid] {
				continue
			}
			if !certifyCoverCluster(gv, ws, old.Clusters[cid], p.WeakBound, inBall) {
				return nil, nil, fmt.Errorf("%w: cluster %d failed the weak-diameter certificate", ErrRepairFallback, cid)
			}
			certified[cid] = true
			rep.Certified++
		}
	}

	var patches [][2]int32
	for _, e := range delta.Added {
		if len(commonClusters(old.MemberOf[e[0]], old.MemberOf[e[1]], nil)) == 0 {
			patches = append(patches, e)
		}
	}
	if len(patches) > maxPatches {
		return nil, nil, fmt.Errorf("%w: %d patch clusters exceed cap %d", ErrRepairFallback, len(patches), maxPatches)
	}
	if len(patches) == 0 {
		return old, rep, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	out := &Cover{
		Clusters: append([][]int32(nil), old.Clusters...),
		MemberOf: append([][]int32(nil), old.MemberOf...),
		Rounds:   old.Rounds,
	}
	for _, e := range patches {
		// An earlier patch this repair may already cover the edge.
		if len(commonClusters(out.MemberOf[e[0]], out.MemberOf[e[1]], nil)) > 0 {
			continue
		}
		// ViewBall aliases the workspace: copy before sorting (the next
		// traversal would clobber it).
		ball := append([]int32(nil), graph.ViewBall(ws, gv, e[:1], p.WeakBound/2)...)
		slices.Sort(ball)
		id := int32(len(out.Clusters))
		out.Clusters = append(out.Clusters, ball)
		for _, w := range ball {
			out.MemberOf[w] = append(append([]int32(nil), out.MemberOf[w]...), id)
		}
		rep.NewClusters++
		rep.Region += len(ball)
	}
	return out, rep, nil
}

// commonClusters appends to dst the cluster ids present in both membership
// lists (which are short — bounded by the vertex multiplicity).
func commonClusters(a, b []int32, dst []int32) []int32 {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				dst = append(dst, x)
				break
			}
		}
	}
	return dst
}

// certifyCoverCluster is certifyWeakDiameter for overlapping cover
// clusters: membership is marked in the scratch slice (cleared before
// return) instead of read off a partition labeling.
func certifyCoverCluster(gv graph.View, ws *graph.Workspace, members []int32, bound int, scratch []bool) bool {
	if len(members) <= 1 {
		return true
	}
	ball := graph.ViewBall(ws, gv, members[:1], bound/2)
	for _, v := range ball {
		scratch[v] = true
	}
	ok := true
	for _, v := range members {
		if !scratch[v] {
			ok = false
			break
		}
	}
	for _, v := range ball {
		scratch[v] = false
	}
	return ok
}

// separatedAt checks Definition 1.4 locally: no edge at v joins two
// distinct clusters.
func separatedAt(g *graph.Graph, clusterOf []int32, v int32) bool {
	cv := clusterOf[v]
	if cv < 0 {
		return true
	}
	for _, w := range g.Neighbors(int(v)) {
		if cw := clusterOf[w]; cw >= 0 && cw != cv {
			return false
		}
	}
	return true
}
