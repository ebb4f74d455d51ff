package store

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graphio"
	"repro/internal/xrand"
)

// edgeSet mirrors a store's expected edge set for reference checks.
type edgeSet map[[2]int32]bool

func (s edgeSet) key(u, v int) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}
}

func (s edgeSet) graph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for e := range s {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	return b.Build()
}

func setOf(g *graph.Graph) edgeSet {
	s := edgeSet{}
	g.Edges(func(u, v int) { s[s.key(u, v)] = true })
	return s
}

func TestAddDeleteAgainstReference(t *testing.T) {
	g := gen.GNP(120, 5.0/120, xrand.New(3))
	st := New(g)
	ref := setOf(g)
	rng := xrand.New(99)
	applied := 0
	for i := 0; i < 400; i++ {
		u, v := rng.Intn(120), rng.Intn(120)
		k := ref.key(u, v)
		if rng.Intn(2) == 0 {
			want := u != v && !ref[k]
			if got := st.AddEdge(u, v); got != want {
				t.Fatalf("AddEdge(%d,%d) = %t, want %t", u, v, got, want)
			}
			if want {
				ref[k] = true
				applied++
			}
		} else {
			want := u != v && ref[k]
			if got := st.DeleteEdge(u, v); got != want {
				t.Fatalf("DeleteEdge(%d,%d) = %t, want %t", u, v, got, want)
			}
			if want {
				delete(ref, k)
				applied++
			}
		}
	}
	if st.Epoch() != uint64(applied) {
		t.Fatalf("epoch = %d, want %d applied mutations", st.Epoch(), applied)
	}
	if st.M() != len(ref) {
		t.Fatalf("M = %d, want %d", st.M(), len(ref))
	}
	snap := st.Snapshot()
	want := ref.graph(120)
	if got := graphio.FingerprintOf(snap.Graph()); got != graphio.FingerprintOf(want) {
		t.Fatal("materialized snapshot does not match reference edge set")
	}
	// Overlay reads agree with the materialized graph vertex by vertex.
	for v := 0; v < 120; v++ {
		nb, wantNb := snap.Neighbors(v), want.Neighbors(v)
		if len(nb) != len(wantNb) {
			t.Fatalf("vertex %d: overlay degree %d != %d", v, len(nb), len(wantNb))
		}
		for i := range nb {
			if nb[i] != wantNb[i] {
				t.Fatalf("vertex %d: overlay neighbor %d mismatch", v, i)
			}
		}
	}
}

func TestRejectedMutationsAreNoOps(t *testing.T) {
	st := New(gen.Cycle(10))
	fp := st.Fingerprint()
	for _, bad := range [][2]int{{3, 3}, {-1, 2}, {2, 10}, {0, 1}} { // {0,1} exists
		if st.AddEdge(bad[0], bad[1]) {
			t.Fatalf("AddEdge%v accepted", bad)
		}
	}
	for _, bad := range [][2]int{{3, 3}, {-1, 2}, {2, 10}, {0, 5}} { // {0,5} absent
		if st.DeleteEdge(bad[0], bad[1]) {
			t.Fatalf("DeleteEdge%v accepted", bad)
		}
	}
	if st.Epoch() != 0 || st.Fingerprint() != fp {
		t.Fatal("rejected mutation consumed an epoch or changed the fingerprint")
	}
}

// TestSnapshotIsolation pins the copy-on-write contract: a snapshot is
// frozen at its version while the store moves on, including the
// shared-empty-overlay case and the shared-list case.
func TestSnapshotIsolation(t *testing.T) {
	st := New(gen.Cycle(8)) // 0-1-2-...-7-0
	s0 := st.Snapshot()
	if !st.AddEdge(0, 4) {
		t.Fatal("AddEdge failed")
	}
	s1 := st.Snapshot()
	if !st.DeleteEdge(0, 1) {
		t.Fatal("DeleteEdge failed")
	}
	s2 := st.Snapshot()

	check := func(s *Snapshot, u, v int, want bool) {
		t.Helper()
		if s.HasEdge(u, v) != want {
			t.Fatalf("epoch-%d snapshot: HasEdge(%d,%d) = %t, want %t", s.Epoch(), u, v, !want, want)
		}
	}
	check(s0, 0, 4, false)
	check(s0, 0, 1, true)
	check(s1, 0, 4, true)
	check(s1, 0, 1, true)
	check(s2, 0, 4, true)
	check(s2, 0, 1, false)
	if s0.M() != 8 || s1.M() != 9 || s2.M() != 8 {
		t.Fatalf("edge counts (%d, %d, %d), want (8, 9, 8)", s0.M(), s1.M(), s2.M())
	}
	fps := map[graphio.Fingerprint]bool{s0.Fingerprint(): true, s1.Fingerprint(): true, s2.Fingerprint(): true}
	if len(fps) != 3 {
		t.Fatal("snapshots at distinct versions share a fingerprint")
	}
	// Same version → same instance.
	if st.Snapshot() != s2 {
		t.Fatal("unchanged store returned a fresh snapshot")
	}
	// Materializations agree with per-version expectations.
	if s0.Graph() != gensnap(t, s0) || s2.Graph().M() != 8 {
		t.Fatal("materialization drifted")
	}
}

// gensnap sanity-checks s.Graph() against the overlay view and returns it.
func gensnap(t *testing.T, s *Snapshot) *graph.Graph {
	t.Helper()
	g := s.Graph()
	if g.N() != s.N() || g.M() != s.M() {
		t.Fatalf("materialized (n=%d,m=%d) != snapshot (n=%d,m=%d)", g.N(), g.M(), s.N(), s.M())
	}
	return g
}

func TestDeltaLogAndTombstones(t *testing.T) {
	st := New(gen.Path(6))
	st.AddEdge(0, 5)
	st.DeleteEdge(2, 3)
	st.AddEdge(2, 4)
	log := st.Deltas()
	want := []Delta{{OpAdd, 0, 5, 1}, {OpDel, 2, 3, 2}, {OpAdd, 2, 4, 3}}
	if len(log) != len(want) {
		t.Fatalf("log length %d, want %d", len(log), len(want))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("delta %d = %+v, want %+v", i, log[i], want[i])
		}
	}
	stats := st.Stats()
	if stats.Adds != 2 || stats.Dels != 1 || stats.PendingDeltas != 3 || stats.Epoch != 3 {
		t.Fatalf("stats %+v", stats)
	}
	st.Compact()
	if got := st.Stats(); got.PendingDeltas != 0 || got.Compactions != 1 || got.Epoch != 3 {
		t.Fatalf("post-compact stats %+v", got)
	}
}

// TestCompactConvergesFingerprints pins the identity contract: the
// incremental chain is history-sensitive, but Compact restores the
// canonical content fingerprint, so different mutation orders (and a
// direct load of the same edge set) converge.
func TestCompactConvergesFingerprints(t *testing.T) {
	mk := func() *Store { return New(gen.Cycle(12)) }
	a, b := mk(), mk()
	a.AddEdge(0, 6)
	a.AddEdge(2, 8)
	b.AddEdge(2, 8)
	b.AddEdge(0, 6)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("incremental chain is order-insensitive (hash domain too weak?)")
	}
	ca, _ := a.Compact()
	cb, _ := b.Compact()
	fa, fb := ca.Fingerprint(), cb.Fingerprint()
	if fa != fb {
		t.Fatal("compacted fingerprints do not converge")
	}
	direct := gen.Cycle(12)
	db := graph.NewBuilder(12)
	direct.Edges(func(u, v int) { db.AddEdge(u, v) })
	db.AddEdge(0, 6)
	db.AddEdge(2, 8)
	if fa != graphio.FingerprintOf(db.Build()) {
		t.Fatal("compacted fingerprint differs from a direct build of the same edge set")
	}
}

func TestCompactPreservesOldSnapshots(t *testing.T) {
	st := New(gen.Grid(4, 4))
	old := st.Snapshot()
	oldFP := old.Fingerprint()
	st.AddEdge(0, 15)
	st.Compact()
	st.DeleteEdge(0, 15)
	if old.Fingerprint() != oldFP || old.HasEdge(0, 15) {
		t.Fatal("compact/mutation disturbed an old snapshot")
	}
	if !st.Snapshot().HasEdge(0, 1) {
		t.Fatal("base edge lost across compact")
	}
}

func TestSnapshotBallMatchesGraphBall(t *testing.T) {
	g := gen.GNP(150, 6.0/150, xrand.New(7))
	st := New(g)
	rng := xrand.New(11)
	for i := 0; i < 60; i++ {
		if rng.Intn(3) == 0 {
			st.DeleteEdge(rng.Intn(150), rng.Intn(150))
		} else {
			st.AddEdge(rng.Intn(150), rng.Intn(150))
		}
	}
	snap := st.Snapshot()
	mat := snap.Graph()
	ws := graph.NewWorkspace(mat.N())
	for _, v := range []int{0, 17, 149} {
		for k := 0; k <= 3; k++ {
			got, want := snap.Ball(v, k), mat.BallAliveWithWorkspace(ws, v, k, nil)
			if len(got) != len(want) {
				t.Fatalf("v=%d k=%d: overlay ball size %d != %d", v, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("v=%d k=%d: ball order differs at %d", v, k, i)
				}
			}
		}
	}
}

// TestSnapshotBallAllocatesOnlyResult pins the served ball path: a warm
// Snapshot.Ball runs on a pooled traversal workspace, so the one
// allocation is the caller-owned copy of the ball — no per-call visited
// array sized to the graph.
func TestSnapshotBallAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	st := New(gen.GNP(2000, 8.0/2000, xrand.New(3)))
	for i := 0; i < 40; i++ {
		st.AddEdge(i, 1999-i)
	}
	snap := st.Snapshot()
	if allocs := testing.AllocsPerRun(100, func() { snap.Ball(17, 2) }); allocs != 1 {
		t.Fatalf("warm Snapshot.Ball: %v allocs/op, want 1 (the returned copy)", allocs)
	}
}

// TestConcurrentMutateAndRead is the store's race smoke: writers churn
// edges while readers take snapshots and traverse them. Run under -race in
// CI. Correctness of the final state is enforced by Compact's validating
// CSR rebuild.
func TestConcurrentMutateAndRead(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy churn smoke; runs in the dedicated race step")
	}
	st := New(gen.GNP(200, 5.0/200, xrand.New(1)))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.Stream(42, w, 0xfeed)
			for i := 0; i < 300; i++ {
				u, v := rng.Intn(200), rng.Intn(200)
				if rng.Intn(3) == 0 {
					st.DeleteEdge(u, v)
				} else {
					st.AddEdge(u, v)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.Stream(43, r, 0xbeef)
			for i := 0; i < 300; i++ {
				snap := st.Snapshot()
				v := rng.Intn(200)
				ball := snap.Ball(v, 2)
				if len(ball) == 0 || ball[0] != int32(v) {
					t.Errorf("ball of %d empty or misordered", v)
					return
				}
				if snap.Degree(v) != len(snap.Neighbors(v)) {
					t.Errorf("degree/neighbors disagree at %d", v)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	// Validating rebuild: panics if any overlay invariant broke.
	final, _ := st.Compact()
	if final.Graph().N() != 200 {
		t.Fatal("vertex count drifted")
	}
}

// TestStatsOneShotConsistency pins the serving-layer contract: a Stats read
// describes a single version — its fingerprint, edge count, and epoch agree
// with the snapshot taken at the same quiet point.
func TestStatsOneShotConsistency(t *testing.T) {
	s := New(gen.Cycle(32))
	st := s.Stats()
	if st.N != 32 || st.M != 32 || st.Epoch != 0 {
		t.Fatalf("fresh stats %+v", st)
	}
	if st.Fingerprint != s.Snapshot().Fingerprint() {
		t.Fatal("stats fingerprint disagrees with snapshot")
	}
	s.AddEdge(0, 16)
	s.DeleteEdge(1, 2)
	st = s.Stats()
	if st.M != 32 || st.Epoch != 2 || st.Adds != 1 || st.Dels != 1 {
		t.Fatalf("post-mutation stats %+v", st)
	}
	if st.Fingerprint != s.Snapshot().Fingerprint() {
		t.Fatal("stats fingerprint lags the mutation chain")
	}
	s.Compact()
	if st := s.Stats(); st.Fingerprint != graphio.FingerprintOf(s.Snapshot().Graph()) {
		t.Fatal("post-compact stats fingerprint is not canonical")
	}
}
