package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/server"
)

func TestSameSeedSameInputsAndOps(t *testing.T) {
	for _, w := range workloads {
		a, b := w.inputs(inputRNG(7)), w.inputs(inputRNG(7))
		for i := range a {
			if string(a[i].bytes) != string(b[i].bytes) {
				t.Fatalf("%s: input %s differs between two builds from seed 7", w.name, a[i].name)
			}
		}
		for c := 0; c < w.clients; c++ {
			s1, s2 := newStream(w, 7, c), newStream(w, 7, c)
			for i := 0; i < 500; i++ {
				if o1, o2 := s1.next(a), s2.next(a); !reflect.DeepEqual(o1, o2) {
					t.Fatalf("%s client %d: op %d differs between two streams from seed 7: %+v vs %+v", w.name, c, i, o1, o2)
				}
			}
		}
	}
	hot := workloadByName("hot-read")
	if string(hot.inputs(inputRNG(7))[0].bytes) == string(hot.inputs(inputRNG(8))[0].bytes) {
		t.Fatal("seeds 7 and 8 built the same graph")
	}
}

func TestStreamKeepsTheMix(t *testing.T) {
	w := workloadByName("cold-compute")
	ins := w.inputs(inputRNG(1))
	s := newStream(w, 1, 0)
	count := map[string]int{}
	for i := 0; i < 100; i++ {
		count[s.next(ins).algo]++
	}
	want := map[string]int{"changli": 50, "sparsecover": 20, "packing": 20, "covering": 10}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("100 ops drew %v, want %v", count, want)
	}
}

// path is the path graph 0-1-...-(n-1).
func path(n int) *adjacency {
	var edges [][2]int32
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int32{int32(v - 1), int32(v)})
	}
	return newAdjacency(n, edges)
}

func TestChecksRejectPlantedAnswers(t *testing.T) {
	adj := path(5)
	good := &server.Result{ClusterOf: []int32{0, 0, -1, 1, 1}, NumClusters: 2, Unclustered: 1}
	if err := checkDecomposition(good, adj); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}
	flipped := *good
	flipped.ClusterOf = []int32{0, 0, -1, 0, 1} // edge {3, 4} now joins two clusters
	if err := checkDecomposition(&flipped, adj); err == nil {
		t.Error("cluster id flipped across an edge was accepted")
	}
	sparse := *good
	sparse.ClusterOf, sparse.NumClusters = []int32{0, 0, -1, 2, 2}, 3
	if err := checkDecomposition(&sparse, adj); err == nil {
		t.Error("non-dense cluster ids were accepted")
	}

	if err := checkIndependent([]bool{true, false, true, false, true}, adj); err != nil {
		t.Fatalf("valid independent set rejected: %v", err)
	}
	if err := checkIndependent([]bool{true, true, false, false, true}, adj); err == nil {
		t.Error("independent set with an adjacent pair was accepted")
	}
	if err := checkDominating([]bool{false, true, false, true, false}, adj); err != nil {
		t.Fatalf("valid dominating set rejected: %v", err)
	}
	if err := checkDominating([]bool{false, true, false, false, false}, adj); err == nil {
		t.Error("dominating set leaving vertex 3 undominated was accepted")
	}
}

// TestChecksAcceptRealAnswers runs the checks on answers of the real
// algorithms, so that they do not reject what the program gets right, and
// shows that sameResult notices a single changed cluster id.
func TestChecksAcceptRealAnswers(t *testing.T) {
	in := gnpLike("gnp-300", 300, 6, rand.New(rand.NewPCG(3, 4)))
	c := newChecker(context.Background(), workloadByName("cold-compute"), []*input{in})
	for _, o := range []op{changli(0, 5), ilpRun("packing", "mis", 0, 5), ilpRun("covering", "mds", 0, 5)} {
		ref, err := c.reference(0, "static", in.edges, o.algo, o.params, 10)
		if err != nil {
			t.Fatal(err)
		}
		res := wire(ref)
		if err := c.checkRun(&o, res); err != nil {
			t.Fatalf("%s: real answer rejected: %v", o.algo, err)
		}
		if o.algo == "changli" {
			res.ClusterOf = append([]int32(nil), res.ClusterOf...)
			res.ClusterOf[0] = res.ClusterOf[0] + 1
			if err := sameResult(res, ref); err == nil {
				t.Fatal("sameResult accepted a changed cluster id")
			}
		}
	}
}

// wire mirrors the server's JSON form of r.
func wire(r *algo.Result) *server.Result {
	return &server.Result{
		Algorithm: r.Algorithm, Key: r.Key, Kind: r.Kind.String(),
		ClusterOf: r.ClusterOf, ColorOf: r.ColorOf, Clusters: r.Clusters,
		NumClusters: r.NumClusters, NumColors: r.NumColors, Unclustered: r.Unclustered,
		Solution: r.Solution, Value: r.Value, Exact: r.Exact, Feasible: r.Feasible,
		Rounds: r.Rounds, Metrics: r.Metrics,
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, listed []struct{ Name, Unit string }, printed []unitName) {
		if len(listed) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(listed), len(printed))
		}
		for i, m := range listed {
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					what, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, the benchmark has %s", got, want)
	}
}

// TestSmoke runs every workload for a second, untraced and traced, and
// checks that every answer passes and every listed metric is printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, window: time.Second, trace: traced, tmp: t.TempDir()}
			out, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			names := endToEnd
			if traced {
				names = perLayer
			}
			line, err := out.result(names)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			if out.failed > 0 || !strings.HasPrefix(line, `{"correct":true`) {
				var sb strings.Builder
				out.report(&sb, cfg)
				t.Fatalf("%s trace=%t failed its checks:\n%s", w.name, traced, sb.String())
			}
		}
	}
}
