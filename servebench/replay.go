package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graphio"
	"repro/internal/server"
	"repro/internal/store"
)

// layerTimes holds the engine/store pass and the algorithm pass of a traced
// run: the op stream replayed on one thread against a fresh engine and
// store built the way the served stack builds them, each layer call timed
// on its own.
type layerTimes struct {
	replayed, total int
	graphioRead     time.Duration // graphio.Read of input 0
	storeCreate     time.Duration // store.New or store.Create of input 0
	run, runHit     []time.Duration
	runMiss, repair []time.Duration // full recompute / delta repair
	query, balls    []time.Duration
	mutate          []time.Duration
	materialize     []time.Duration // first Snapshot().Graph() after a write
	compact         []time.Duration
	algo            map[string][]time.Duration
	algoCPU         time.Duration
	algoWall        time.Duration
}

// replay runs ops in order until budget is spent. Every run or cluster
// query that misses the engine's cache is also timed as a bare algo.Run on
// the same snapshot graph and parameters (the algorithm pass). After a
// write the snapshot is materialized at once and timed as the store's, so
// engine times exclude materialization.
func replay(ctx context.Context, w *workload, ins []*input, ops []*op, budget time.Duration, tmp string) (*layerTimes, error) {
	lt := &layerTimes{total: len(ops), algo: map[string][]time.Duration{}}
	e := engine.New(engineOpts)
	srv := server.New(e, serverOpts)
	var handles []engine.StoreHandle
	var stores []*store.Store
	dir := ""
	if w.durable {
		var err error
		if dir, err = os.MkdirTemp(tmp, "replay-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	for i, in := range ins {
		t0 := time.Now()
		g, err := graphio.Read(bytes.NewReader(in.bytes), graphio.EdgeList)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", in.name, err)
		}
		t1 := time.Now()
		st, err := openStore(g, dir, i)
		if err != nil {
			return nil, err
		}
		if w.durable {
			defer st.Close()
		}
		if i == 0 {
			lt.graphioRead, lt.storeCreate = t1.Sub(t0), time.Since(t1)
		}
		_, h := srv.AddStore(st)
		handles = append(handles, h)
		stores = append(stores, st)
	}

	// timeRun runs one engine request and, when it missed, the algorithm
	// pass on the same snapshot.
	timeRun := func(h engine.StoreHandle, st *store.Store, name string, p algo.Params) (*algo.Result, time.Duration, error) {
		s0 := e.Stats()
		t0 := time.Now()
		res, err := e.Run(ctx, h, name, p)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		s1 := e.Stats()
		switch {
		case s1.Hits > s0.Hits:
			lt.runHit = append(lt.runHit, d)
			return res, d, nil
		case s1.RepairHits > s0.RepairHits:
			lt.repair = append(lt.repair, d)
		default:
			lt.runMiss = append(lt.runMiss, d)
		}
		g := st.Snapshot().Graph()
		c0, t1 := cpuTime(), time.Now()
		if _, err := algo.Run(ctx, name, g, p); err != nil {
			return nil, 0, err
		}
		wall := time.Since(t1)
		lt.algo[name] = append(lt.algo[name], wall)
		lt.algoWall += wall
		lt.algoCPU += cpuTime() - c0
		return res, d, nil
	}

	start := time.Now()
	for _, o := range ops {
		if time.Since(start) > budget {
			break
		}
		lt.replayed++
		h, st := handles[o.graph], stores[o.graph]
		switch o.kind {
		case opRun:
			_, d, err := timeRun(h, st, o.algo, o.params)
			if err != nil {
				return nil, err
			}
			lt.run = append(lt.run, d)
		case opCluster:
			t0 := time.Now()
			res, _, err := timeRun(h, st, "changli", changli(o.graph, o.seed).params)
			if err != nil {
				return nil, err
			}
			out := make([]int32, len(o.vertices))
			for i, v := range o.vertices {
				out[i] = res.ClusterOf[v]
			}
			lt.query = append(lt.query, time.Since(t0))
		case opBall:
			t0 := time.Now()
			if _, err := e.Balls(ctx, h, o.vertices, o.radius, 0); err != nil {
				return nil, err
			}
			lt.balls = append(lt.balls, time.Since(t0))
		case opAdd, opDel:
			t0 := time.Now()
			var applied bool
			if o.kind == opAdd {
				applied = st.AddEdge(int(o.u), int(o.v))
			} else {
				applied = st.DeleteEdge(int(o.u), int(o.v))
			}
			lt.mutate = append(lt.mutate, time.Since(t0))
			if applied {
				t1 := time.Now()
				st.Snapshot().Graph()
				lt.materialize = append(lt.materialize, time.Since(t1))
			}
		case opCompact:
			t0 := time.Now()
			if _, err := st.Compact(); err != nil {
				return nil, err
			}
			lt.compact = append(lt.compact, time.Since(t0))
		}
	}
	return lt, nil
}
