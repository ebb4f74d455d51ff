package main

import (
	"bufio"
	"context"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/store"
)

// runTraced makes one set-up and three passes. The HTTP pass measures an
// untraced reference window of half the length, then the traced window.
// The engine/store pass and the algorithm pass replay the same op stream
// (see replay) within a budget of one window.
func runTraced(ctx context.Context, cfg config, w *workload, ins []*input) (*outcome, error) {
	tc := &tracer{}
	tc.on.Store(true)
	st, _, err := setup(ctx, w, ins, cfg.tmp, tc)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setupSpans := tc.take()
	tc.on.Store(false)

	gen := newLoadGen(st, ins, cfg.seed, tc)
	runtime.GC()
	ref := gen.drive(ctx, cfg.window/2)
	before, err := snapshotCounters(ctx, st)
	if err != nil {
		return nil, err
	}
	tc.on.Store(true)
	win := gen.drive(ctx, cfg.window)
	tc.on.Store(false)
	after, err := snapshotCounters(ctx, st)
	if err != nil {
		return nil, err
	}
	spans := tc.take()

	all := append(append([]sample(nil), ref.samples...), win.samples...)
	out := check(ctx, w, ins, all, st)

	ops := make([]*op, 0, len(w.warm)+len(all))
	for i := range w.warm {
		ops = append(ops, &w.warm[i])
	}
	for _, sm := range all {
		ops = append(ops, sm.o)
	}
	lt, err := replay(ctx, w, ins, ops, cfg.window, cfg.tmp)
	if err != nil {
		return nil, err
	}
	out.metrics = layerMetrics(w, setupSpans, spans, ref, win, before, after, lt)
	return out, nil
}

// counters are the program's own counts, read around the traced window.
type counters struct {
	engine engine.Stats // summed over the backends
	store  store.Stats  // the durable store, when there is one
	router map[string]float64
}

func snapshotCounters(ctx context.Context, st *stack) (counters, error) {
	var c counters
	for _, nd := range st.nodes {
		s := nd.e.Stats()
		c.engine.Hits += s.Hits
		c.engine.Misses += s.Misses
		c.engine.RepairHits += s.RepairHits
		c.engine.RepairFallbacks += s.RepairFallbacks
		if nd.st != nil {
			c.store = nd.st.Stats()
		}
	}
	if st.rl != nil {
		text, err := server.NewClient(st.rl.url, &http.Client{Transport: st.tr}).Metrics(ctx)
		if err != nil {
			return c, err
		}
		c.router = parseMetrics(text)
	}
	return c, nil
}

// parseMetrics reads the unlabelled samples of a Prometheus exposition.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

func us(ds []time.Duration) float64 { return float64(medianDur(ds)) / 1e3 }
func ms(ds []time.Duration) float64 { return float64(medianDur(ds)) / 1e6 }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// layerMetrics derives the per-layer metrics of a traced run. Self times
// subtract, op by op, the span of the layer below; the engine's hit time
// comes from the replay, so server.run_self_p50_us subtracts medians.
func layerMetrics(w *workload, setupSpans, spans map[uint64][]span, ref, win *window,
	before, after counters, lt *layerTimes) []metric {
	var out []metric
	add := func(name, unit string, v float64, na string) {
		out = append(out, metric{name: name, unit: unit, value: v, na: na})
	}
	durs := func(name, unit string, ds []time.Duration, scale func([]time.Duration) float64, na string) {
		if len(ds) == 0 {
			add(name, unit, 0, na)
			return
		}
		add(name, unit, scale(ds), "")
	}
	top := "node0"
	if w.routed {
		top = "router"
	}

	// HTTP pass.
	var runH, queryH, clientSelf, routerSelf, replicate []time.Duration
	var respBytes int64
	reads, nodeReqs, shed, clientOps := 0, 0, 0, 0
	for _, ss := range spans {
		var client, head *span
		var winner *span
		for i := range ss {
			s := &ss[i]
			switch {
			case s.layer == "client":
				client = s
				clientOps++
			case s.layer == top:
				head = s
			}
			if !strings.HasPrefix(s.layer, "node") {
				continue
			}
			nodeReqs++
			if s.status == http.StatusServiceUnavailable {
				shed++
			}
			switch s.kind {
			case "run":
				runH = append(runH, s.dur())
			case "query":
				queryH = append(queryH, s.dur())
			case "replicate":
				replicate = append(replicate, s.dur())
			}
			if (s.kind == "run" || s.kind == "query") && s.status/100 == 2 && (winner == nil || s.end.Before(winner.end)) {
				winner = s
			}
		}
		if client == nil || head == nil || !isReadKind(client.kind) {
			continue
		}
		reads++
		respBytes += head.bytes
		clientSelf = append(clientSelf, client.dur()-head.dur())
		if w.routed && winner != nil {
			routerSelf = append(routerSelf, head.dur()-winner.dur())
		}
	}
	durs("server.run_handler_p50_us", "us", runH, us, "no run requests")
	durs("server.query_handler_p50_us", "us", queryH, us, "no query requests in this workload")
	if len(runH) > 0 && len(lt.runHit) > 0 {
		add("server.run_self_p50_us", "us", us(runH)-us(lt.runHit), "")
	} else {
		add("server.run_self_p50_us", "us", 0, "no cache hits in this workload")
	}
	durs("server.client_self_p50_us", "us", clientSelf, us, "no traced reads")
	add("server.resp_bytes_per_read", "bytes", float64(respBytes)/float64(max(1, reads)), "")
	add("server.shed_frac", "ratio", float64(shed)/float64(max(1, nodeReqs)), "")

	// Engine: counts from the HTTP pass, times from the replay.
	durs("engine.run_p50_us", "us", lt.run, us, "no run ops replayed")
	durs("engine.run_hit_p50_us", "us", lt.runHit, us, "no cache hits in this workload")
	durs("engine.run_miss_p50_ms", "ms", lt.runMiss, ms, "no full recomputes replayed")
	durs("engine.query_p50_us", "us", lt.query, us, "no cluster queries in this workload")
	durs("engine.balls_p50_us", "us", lt.balls, us, "no ball queries in this workload")
	dh := float64(after.engine.Hits - before.engine.Hits)
	dm := float64(after.engine.Misses - before.engine.Misses)
	add("engine.hit_frac", "ratio", dh/max(1, dh+dm), "")
	applied := 0
	for _, sm := range win.samples {
		if mr, ok := sm.resp.(*server.MutateResponse); ok && sm.err == nil && mr.Applied && sm.o.kind.isWrite() {
			applied++
		}
	}
	noWrites := ""
	if applied == 0 {
		noWrites = "no writes in this workload"
	}
	if dm > 0 && noWrites == "" {
		add("engine.repair_hit_frac", "ratio", float64(after.engine.RepairHits-before.engine.RepairHits)/dm, "")
	} else {
		add("engine.repair_hit_frac", "ratio", 0, "no misses after writes")
	}
	durs("engine.repair_p50_ms", "ms", lt.repair, ms, "no delta repairs replayed")
	add("engine.repair_fallbacks_per_1k_writes", "count",
		float64(after.engine.RepairFallbacks-before.engine.RepairFallbacks)*1000/float64(max(1, applied)), noWrites)

	// Algorithm pass.
	durs("algo.changli_p50_ms", "ms", lt.algo["changli"], ms, "no changli misses replayed")
	durs("algo.sparsecover_p50_ms", "ms", lt.algo["sparsecover"], ms, "no sparsecover misses replayed")
	durs("algo.packing_p50_ms", "ms", lt.algo["packing"], ms, "no packing ops in this workload")
	durs("algo.covering_p50_ms", "ms", lt.algo["covering"], ms, "no covering ops in this workload")
	if lt.algoWall > 0 {
		add("algo.cpu_per_wall", "ratio", float64(lt.algoCPU)/float64(lt.algoWall), "")
	} else {
		add("algo.cpu_per_wall", "ratio", 0, "no misses replayed")
	}

	// Store, WAL and graphio.
	add("graphio.read_ms", "ms", float64(lt.graphioRead)/1e6, "")
	add("store.create_ms", "ms", float64(lt.storeCreate)/1e6, "")
	durs("store.mutate_p50_us", "us", lt.mutate, us, "no writes in this workload")
	durs("store.materialize_p50_ms", "ms", lt.materialize, ms, "no applied writes replayed")
	durs("store.compact_ms", "ms", lt.compact, ms, "no compaction replayed")
	if w.durable && applied > 0 {
		add("wal.syncs_per_write", "count", float64(after.store.WALSyncs-before.store.WALSyncs)/float64(applied), "")
	} else {
		add("wal.syncs_per_write", "count", 0, "no durable writes in this workload")
	}
	if w.durable && after.store.PendingDeltas > 0 {
		add("wal.bytes_per_write", "bytes", float64(after.store.DeltaBytes)/float64(after.store.PendingDeltas), "")
	} else {
		add("wal.bytes_per_write", "bytes", 0, "no durable writes pending")
	}
	var upload time.Duration
	for _, ss := range setupSpans {
		for _, s := range ss {
			if s.layer == "client" && s.kind == "upload" {
				upload += s.dur()
			}
		}
	}
	if upload > 0 {
		add("graphio.upload_ms", "ms", float64(upload)/1e6, "")
	} else {
		add("graphio.upload_ms", "ms", 0, "the store is created in-process, not uploaded")
	}

	// Cluster.
	naCluster := ""
	if !w.routed {
		naCluster = "no router in this workload"
	}
	durs("cluster.router_self_p50_us", "us", routerSelf, us, "no router in this workload")
	delta := func(name string) float64 { return after.router[name] - before.router[name] }
	hedged, readsRouted := delta("repro_cluster_hedged_requests_total"), delta("repro_cluster_reads_total")
	add("cluster.hedge_frac", "ratio", hedged/max(1, readsRouted), naCluster)
	if hedged > 0 || naCluster != "" {
		add("cluster.hedge_win_frac", "ratio", delta("repro_cluster_hedge_wins_total")/max(1, hedged), naCluster)
	} else {
		add("cluster.hedge_win_frac", "ratio", 0, "no hedged reads")
	}
	add("cluster.backend_reqs_per_op", "count", float64(nodeReqs)/float64(max(1, clientOps)), naCluster)
	durs("cluster.replicate_p50_us", "us", replicate, us, "no replicated writes in this workload")

	// Process counts over the untraced reference window.
	done := 0
	for _, sm := range ref.samples {
		if sm.err == nil {
			done++
		}
	}
	add("process.alloc_bytes_per_op", "bytes", float64(ref.mem1.TotalAlloc-ref.mem0.TotalAlloc)/float64(max(1, done)), "")
	add("process.gc_per_1k_ops", "count", float64(ref.mem1.NumGC-ref.mem0.NumGC)*1000/float64(max(1, done)), "")

	// Tracing overhead: the traced window against the untraced reference.
	refRead, tracedRead := readMean(ref), readMean(win)
	add("trace.read_mean_ms", "ms", tracedRead, "")
	add("trace.ref_read_mean_ms", "ms", refRead, "")
	add("trace.overhead_frac", "ratio", tracedRead/refRead-1, "")
	add("trace.replayed_ops", "count", float64(lt.replayed), "")
	add("trace.stream_ops", "count", float64(lt.total), "")
	return out
}

func isReadKind(kind string) bool {
	return kind == opRun.String() || kind == opCluster.String() || kind == opBall.String()
}

func readMean(win *window) float64 {
	for _, m := range e2eMetrics(win) {
		if m.name == "read_mean_ms" {
			return m.value
		}
	}
	return 0
}
