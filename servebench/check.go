package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"slices"
	"strings"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/server"
)

// Caps on the checks that recompute a result, so that checking stays a
// small share of a run.
const (
	maxIdentityChecks = 24
	maxSnapshotChecks = 12
)

// checker verifies the answers a run collected, after its timed window.
type checker struct {
	ctx  context.Context
	w    *workload
	ins  []*input
	adj  []*adjacency // benchmark-side adjacency of each input
	refs map[string]*algo.Result
	// recomputed counts reference runs, which maxIdentityChecks and
	// maxSnapshotChecks cap.
	recomputed int
	// tally counts the checks made, by kind, for the report. "unresolved"
	// counts sampled reads whose snapshot no acknowledged write named, so
	// the graph they saw cannot be rebuilt.
	tally map[string]int
	// Mutating workloads: every acknowledged applied write, and the epoch
	// each acknowledged fingerprint names.
	writes []ackedWrite
	epochs map[string]uint64
}

type ackedWrite struct {
	epoch uint64
	add   bool
	u, v  int32
}

func newChecker(ctx context.Context, w *workload, ins []*input) *checker {
	c := &checker{ctx: ctx, w: w, ins: ins, refs: map[string]*algo.Result{}, tally: map[string]int{}}
	for _, in := range ins {
		c.adj = append(c.adj, newAdjacency(in.n, in.edges))
	}
	return c
}

func (c *checker) mutating() bool { return c.w.durable || c.w.routed }

// summary lists the checks made, by kind.
func (c *checker) summary() string {
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(c.tally)) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c.tally[k]))
	}
	return strings.Join(parts, " ")
}

// run checks every kept answer, marking a sample failed when its answer is
// wrong, and returns the problems found by the whole-run checks (which are
// not tied to one op).
func (c *checker) run(samples []sample, st *stack) []string {
	var problems []string
	if c.mutating() {
		if err := c.indexWrites(samples); err != nil {
			return []string{err.Error()}
		}
	}
	for i := range samples {
		sm := &samples[i]
		if sm.err != nil || sm.resp == nil {
			continue
		}
		if err := c.checkOne(sm); err != nil {
			sm.err = fmt.Errorf("output check: %w", err)
		}
	}
	if c.w.durable {
		problems = append(problems, c.checkCompacted(st)...)
	}
	if c.w.routed {
		problems = append(problems, c.checkMembers(st)...)
	}
	return problems
}

// indexWrites orders the acknowledged writes by epoch and maps every
// acknowledged fingerprint to its epoch. The base graph is epoch 0.
func (c *checker) indexWrites(samples []sample) error {
	g, err := c.parse(0, c.ins[0].edges)
	if err != nil {
		return err
	}
	c.epochs = map[string]uint64{graphio.FingerprintOf(g).String(): 0}
	for _, sm := range samples {
		mr, ok := sm.resp.(*server.MutateResponse)
		if !ok || sm.err != nil {
			continue
		}
		c.epochs[mr.Fingerprint] = mr.Epoch
		if mr.Applied && sm.o.kind.isWrite() {
			c.writes = append(c.writes, ackedWrite{epoch: mr.Epoch, add: sm.o.kind == opAdd, u: sm.o.u, v: sm.o.v})
		}
	}
	// A response reports the store as it stands after the call, so two
	// concurrent writes can read back the same epoch; samples are in start
	// order, and the stable sort keeps that order between them.
	slices.SortStableFunc(c.writes, func(a, b ackedWrite) int { return cmp.Compare(a.epoch, b.epoch) })
	return nil
}

// edgesAt rebuilds input 0's edge list at the given epoch: the generated
// edges plus the first epoch acknowledged writes.
func (c *checker) edgesAt(epoch uint64) [][2]int32 {
	set := newEdgeSet(c.ins[0].edges)
	for _, w := range c.writes[:min(int(epoch), len(c.writes))] {
		if w.add {
			set[edgeKey(w.u, w.v)] = struct{}{}
		} else {
			delete(set, edgeKey(w.u, w.v))
		}
	}
	return set.list()
}

func (c *checker) parse(graphIdx int, edges [][2]int32) (*graph.Graph, error) {
	return graphio.Read(bytes.NewReader(edgeListBytes(c.ins[graphIdx].n, edges)), graphio.EdgeList)
}

func (c *checker) checkOne(sm *sample) error {
	o := sm.o
	switch resp := sm.resp.(type) {
	case *server.Result:
		return c.checkRun(o, resp)
	case *server.QueryResponse:
		if c.mutating() {
			return nil // the ops stream is checked through its run answers
		}
		return c.checkQuery(o, resp)
	}
	return nil
}

func (c *checker) checkRun(o *op, res *server.Result) error {
	adj, edges := c.adj[o.graph], c.ins[o.graph].edges
	snapshot := "static"
	if c.mutating() {
		epoch, ok := c.epochs[res.Snapshot]
		if !ok {
			c.tally["unresolved"]++
			return nil
		}
		edges = c.edgesAt(epoch)
		adj = newAdjacency(c.ins[o.graph].n, edges)
		snapshot = res.Snapshot
	}
	var err error
	switch o.algo {
	case "changli":
		err = checkDecomposition(res, adj)
		c.tally["separated"]++
	case "packing":
		err = checkIndependent(res.Solution, adj)
		c.tally["independent"]++
	case "covering":
		err = checkDominating(res.Solution, adj)
		c.tally["dominating"]++
	}
	if err != nil || res.Metrics["repair_gen"] > 0 {
		return err // a repaired result is checked for separation only
	}
	limit := maxIdentityChecks
	if c.mutating() {
		limit = maxSnapshotChecks
	}
	ref, err := c.reference(o.graph, snapshot, edges, o.algo, o.params, limit)
	if ref == nil || err != nil {
		return err
	}
	c.tally["identical"]++
	return sameResult(res, ref)
}

// reference returns algo.Run's answer on the graph with the given edges,
// memoized per snapshot, or nil once limit reference runs have been made.
func (c *checker) reference(graphIdx int, snapshot string, edges [][2]int32, name string, p algo.Params, limit int) (*algo.Result, error) {
	key := fmt.Sprint(snapshot, name, p)
	if ref, ok := c.refs[key]; ok {
		return ref, nil
	}
	if c.recomputed >= limit {
		return nil, nil
	}
	c.recomputed++
	g, err := c.parse(graphIdx, edges)
	if err != nil {
		return nil, err
	}
	ref, err := algo.Run(c.ctx, name, g, p)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	c.refs[key] = ref
	return ref, nil
}

// checkQuery checks point queries on a static graph: cluster answers
// against the reference decomposition, balls against a BFS of the
// benchmark's own.
func (c *checker) checkQuery(o *op, q *server.QueryResponse) error {
	switch o.kind {
	case opCluster:
		cl := changli(o.graph, o.seed)
		ref, err := c.reference(o.graph, "static", c.ins[o.graph].edges, cl.algo, cl.params, math.MaxInt)
		if err != nil {
			return err
		}
		if len(q.Clusters) != len(o.vertices) {
			return fmt.Errorf("cluster query: %d answers for %d vertices", len(q.Clusters), len(o.vertices))
		}
		for i, v := range o.vertices {
			if q.Clusters[i] != ref.ClusterOf[v] {
				return fmt.Errorf("cluster query: vertex %d in cluster %d, reference says %d", v, q.Clusters[i], ref.ClusterOf[v])
			}
		}
		c.tally["cluster-query"]++
	case opBall:
		if len(q.Balls) != 1 {
			return fmt.Errorf("ball query: %d answers for 1 vertex", len(q.Balls))
		}
		got := slices.Clone(q.Balls[0])
		slices.Sort(got)
		if want := c.adj[o.graph].ball(o.vertices[0], o.radius); !slices.Equal(got, want) {
			return fmt.Errorf("ball query: radius-%d ball of %d has %d vertices, want %d", o.radius, o.vertices[0], len(got), len(want))
		}
		c.tally["ball"]++
	}
	return nil
}

// checkDecomposition checks Theorem 1.1's shape: dense cluster ids and no
// edge between two different clusters.
func checkDecomposition(res *server.Result, adj *adjacency) error {
	n := adj.n()
	if len(res.ClusterOf) != n {
		return fmt.Errorf("decomposition covers %d of %d vertices", len(res.ClusterOf), n)
	}
	seen := make([]bool, res.NumClusters)
	unclustered := 0
	for v, id := range res.ClusterOf {
		switch {
		case id == -1:
			unclustered++
		case id < 0 || int(id) >= res.NumClusters:
			return fmt.Errorf("vertex %d has cluster id %d outside [0, %d)", v, id, res.NumClusters)
		default:
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("cluster ids are not dense: %d of %d is unused", id, res.NumClusters)
		}
	}
	if unclustered != res.Unclustered {
		return fmt.Errorf("%d vertices unclustered, answer says %d", unclustered, res.Unclustered)
	}
	for u := int32(0); int(u) < n; u++ {
		cu := res.ClusterOf[u]
		if cu < 0 {
			continue
		}
		for _, v := range adj.neighbors(u) {
			if cv := res.ClusterOf[v]; cv >= 0 && cv != cu {
				return fmt.Errorf("edge {%d, %d} joins clusters %d and %d", u, v, cu, cv)
			}
		}
	}
	return nil
}

// checkIndependent checks a maximum-independent-set answer: no two chosen
// vertices are adjacent.
func checkIndependent(sol []bool, adj *adjacency) error {
	if len(sol) != adj.n() {
		return fmt.Errorf("solution has %d entries for %d vertices", len(sol), adj.n())
	}
	for u := int32(0); int(u) < len(sol); u++ {
		if !sol[u] {
			continue
		}
		for _, v := range adj.neighbors(u) {
			if sol[v] {
				return fmt.Errorf("independent set holds adjacent vertices %d and %d", u, v)
			}
		}
	}
	return nil
}

// checkDominating checks a minimum-dominating-set answer: every vertex is
// chosen or has a chosen neighbor.
func checkDominating(sol []bool, adj *adjacency) error {
	if len(sol) != adj.n() {
		return fmt.Errorf("solution has %d entries for %d vertices", len(sol), adj.n())
	}
	for u := int32(0); int(u) < len(sol); u++ {
		if sol[u] || slices.ContainsFunc(adj.neighbors(u), func(v int32) bool { return sol[v] }) {
			continue
		}
		return fmt.Errorf("vertex %d is not dominated", u)
	}
	return nil
}

// sameResult compares a served answer with a direct algo.Run in wire
// form, ignoring the snapshot stamp and the wall time.
func sameResult(got *server.Result, want *algo.Result) error {
	g := *got
	g.Snapshot, g.ElapsedNS = "", 0
	w := server.Result{
		Algorithm: want.Algorithm, Key: want.Key, Kind: want.Kind.String(),
		ClusterOf: want.ClusterOf, ColorOf: want.ColorOf, Clusters: want.Clusters,
		NumClusters: want.NumClusters, NumColors: want.NumColors, Unclustered: want.Unclustered,
		Solution: want.Solution, Value: want.Value, Exact: want.Exact, Feasible: want.Feasible,
		Rounds: want.Rounds, Metrics: want.Metrics,
	}
	gb, err := json.Marshal(g)
	if err != nil {
		return err
	}
	wb, err := json.Marshal(w)
	if err != nil {
		return err
	}
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("%s differs from algo.Run on the same graph and parameters", got.Key)
	}
	return nil
}

// checkCompacted compacts the durable store after the window and compares
// its canonical fingerprint with the generated graph plus every
// acknowledged write, applied in epoch order.
func (c *checker) checkCompacted(st *stack) []string {
	mr, err := st.client.Compact(c.ctx, st.ids[0])
	if err != nil {
		return []string{fmt.Sprintf("final compact: %v", err)}
	}
	g, err := c.parse(0, c.edgesAt(uint64(len(c.writes))))
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	if want := graphio.FingerprintOf(g).String(); mr.Fingerprint != want {
		out = append(out, fmt.Sprintf("compacted fingerprint %s, reference %s", mr.Fingerprint, want))
	}
	if mr.Epoch != uint64(len(c.writes)) {
		out = append(out, fmt.Sprintf("store at epoch %d after %d acknowledged writes", mr.Epoch, len(c.writes)))
	}
	c.tally["compacted-fingerprint"]++
	return out
}

// checkMembers asks both backends directly for their copy of the graph:
// after the window they must agree on epoch and fingerprint.
func (c *checker) checkMembers(st *stack) []string {
	var infos []server.GraphInfo
	for i, nd := range st.nodes {
		list, err := server.NewClient(nd.l.url, &http.Client{Transport: st.tr}).Graphs(c.ctx)
		if err != nil {
			return []string{fmt.Sprintf("node%d: %v", i, err)}
		}
		if len(list) != 1 {
			return []string{fmt.Sprintf("node%d serves %d graphs, want 1", i, len(list))}
		}
		infos = append(infos, list[0])
	}
	var out []string
	if a, b := infos[0], infos[1]; a.Epoch != b.Epoch || a.Fingerprint != b.Fingerprint {
		out = append(out, fmt.Sprintf("members disagree: epoch %d fp %s vs epoch %d fp %s", a.Epoch, a.Fingerprint, b.Epoch, b.Fingerprint))
	}
	if infos[0].Epoch != uint64(len(c.writes)) {
		out = append(out, fmt.Sprintf("members at epoch %d after %d acknowledged writes", infos[0].Epoch, len(c.writes)))
	}
	c.tally["member-agreement"]++
	return out
}
