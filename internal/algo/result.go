package algo

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ilp"
)

// Result is the uniform envelope every registered algorithm returns. Only
// the fields matching the Spec's Kind are populated (a decomposition fills
// ClusterOf, an ILP run fills Solution/Value, ...); Raw always carries the
// underlying typed result for callers that need the full structure.
//
// Results are shared by the serving layer's cache and must be treated as
// immutable; copy anything you need to mutate.
type Result struct {
	// Algorithm is the canonical registry name; Key is the canonical
	// cache key (name plus canonicalized parameters).
	Algorithm string
	Key       string
	Kind      Kind

	// Snapshot is the hex fingerprint of the graph snapshot the result was
	// computed against, stamped by serving layers that resolve a mutable
	// store to a version per request (empty for direct algo.Run calls).
	// Together with the cache key it fully identifies what a cached entry
	// answers: in-flight requests keep the snapshot they resolved, so a
	// result can be audited against the graph version it actually saw.
	Snapshot string

	// ClusterOf[v] is v's cluster id, or -1 (decomposition, coloring,
	// edge-cut kinds).
	ClusterOf []int32
	// ColorOf[v] is v's cluster color (coloring kind).
	ColorOf []int32
	// Clusters lists (possibly overlapping) cluster member sets (cover
	// kind; decompositions leave it nil and derive it from ClusterOf).
	Clusters [][]int32
	// NumClusters / NumColors are the respective counts.
	NumClusters int
	NumColors   int
	// Unclustered counts deleted vertices (decomposition kinds).
	Unclustered int

	// Solution and Value are the 0/1 assignment and objective of an ILP
	// run; Exact reports whether every local solve was exact, Feasible
	// whether the assignment satisfies every constraint.
	Solution ilp.Solution
	Value    int64
	Exact    bool
	Feasible bool

	// Rounds is the LOCAL round complexity charged to the run.
	Rounds int
	// Metrics carries algorithm-specific quality numbers (unclustered
	// fraction, cover multiplicity, cut edges, fixed weight, ...).
	Metrics map[string]float64
	// Elapsed is the wall-clock compute time of the run that produced the
	// result. The engine's cache hands every hit the same envelope, so a
	// hit reports the compute time of the original miss.
	Elapsed time.Duration

	// Raw is the underlying typed result (*ldd.Decomposition, *ldd.Cover,
	// *netdecomp.Decomposition, *packing.Result, ...).
	Raw any
}

// metric records a quality number, allocating the map lazily.
func (r *Result) metric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64, 4)
	}
	r.Metrics[key] = v
}

// Summary renders a compact one-line human-readable digest, used by the
// CLIs' default output.
func (r *Result) Summary() string {
	var parts []string
	switch r.Kind {
	case KindILP:
		parts = append(parts,
			fmt.Sprintf("value=%d", r.Value),
			fmt.Sprintf("feasible=%t", r.Feasible),
			fmt.Sprintf("exact=%t", r.Exact))
	case KindCover:
		parts = append(parts, fmt.Sprintf("clusters=%d", r.NumClusters))
	case KindColoring:
		parts = append(parts,
			fmt.Sprintf("clusters=%d", r.NumClusters),
			fmt.Sprintf("colors=%d", r.NumColors))
	default:
		parts = append(parts,
			fmt.Sprintf("clusters=%d", r.NumClusters),
			fmt.Sprintf("unclustered=%d", r.Unclustered))
	}
	parts = append(parts, fmt.Sprintf("rounds=%d", r.Rounds))
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.4g", k, r.Metrics[k]))
	}
	parts = append(parts, fmt.Sprintf("elapsed=%v", r.Elapsed.Round(time.Microsecond)))
	return strings.Join(parts, " ")
}
