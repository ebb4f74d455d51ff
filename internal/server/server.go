// Package server is the HTTP/JSON serving layer over the sharded
// decomposition engine: the network boundary that turns the in-process
// request API of internal/engine into a service real clients can connect
// to. Every algorithm in the registry (internal/algo) is invocable over
// HTTP against uploaded, generated, or mutated graphs, with per-request
// deadlines mapped onto context cancellation so a disconnected client
// cancels its compute through the same plumbing as an expired deadline.
//
// Endpoints (all request and response bodies are JSON unless noted):
//
//	POST   /v1/graphs              upload a graph (raw body in a graphio
//	                               format, ?format=el|dimacs|metis[.gz])
//	                               or generate one (JSON {family,n,seed})
//	GET    /v1/graphs              list served graphs
//	GET    /v1/graphs/{id}         one graph's info (n, m, fingerprint,
//	                               epoch, pending deltas, ...)
//	DELETE /v1/graphs/{id}         stop serving a graph
//	POST   /v1/graphs/{id}/run     run a registry algorithm: {algo, params,
//	                               q, timeout_ms}
//	POST   /v1/graphs/{id}/query   cluster / ball point queries
//	POST   /v1/graphs/{id}/addedge {u, v} edge insertion
//	POST   /v1/graphs/{id}/deledge {u, v} edge deletion
//	POST   /v1/graphs/{id}/compact fold the delta overlay into a fresh CSR
//	POST   /v1/graphs/{id}/batch   NDJSON stream of run requests in,
//	                               NDJSON stream of results out
//	GET    /v1/algorithms          the registry catalog with parameter docs
//	GET    /healthz                liveness (503 while draining)
//	GET    /metrics                engine / store / server / runtime metrics
//	                               (Prometheus text exposition, version
//	                               0.0.4: # HELP / # TYPE per family,
//	                               latency histograms with le in seconds)
//	GET    /debug/traces           recent finished request traces (JSON,
//	                               newest first, ?n= bounds the count)
//	GET    /debug/pprof/*          the standard net/http/pprof handlers
//	                               (profile, heap, goroutine, trace, ...)
//
// Every request is classified into a fixed endpoint label set, timed into a
// per-endpoint latency histogram, and counted per (endpoint, status). When
// the server is constructed with a Tracer, each admitted /v1 request carries
// a trace through the engine and algorithm layers, so /debug/traces and the
// slow-query log show per-phase latency breakdowns.
//
// Graphs are always served through a versioned store (internal/store), so
// the mutation endpoints give a graph a new snapshot identity in O(1) and
// in-flight runs keep the version they resolved; results stamp the snapshot
// fingerprint they were computed against.
//
// Overload and shutdown are first-class: a bounded-concurrency admission
// gate sheds load with 503 + Retry-After instead of piling goroutines, and
// Drain stops admitting new requests while letting in-flight ones finish,
// so a deploy never truncates a response mid-stream.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// Options configures a Server.
type Options struct {
	// MaxInflight bounds concurrently admitted /v1 requests; excess
	// requests are rejected with 503 + Retry-After rather than queued.
	// <= 0 means the default (64).
	MaxInflight int
	// MaxBodyBytes bounds request bodies — and, for gzip-compressed
	// uploads, the decompressed stream as well, so a small compressed
	// bomb cannot expand without limit. <= 0 means the default (64 MiB).
	MaxBodyBytes int64
	// MaxGenerateVertices bounds server-side graph generation (a remote
	// client must not be able to request a multi-gigabyte allocation with
	// a ten-byte JSON body). <= 0 means the default (2,000,000).
	MaxGenerateVertices int
	// DefaultTimeout applies to run/query/batch requests that do not carry
	// their own timeout_ms. 0 means no server-imposed deadline.
	DefaultTimeout time.Duration
	// Tracer, if set, traces every admitted /v1 request: the request
	// context carries an obs.Trace through the engine and algorithm
	// layers, /debug/traces serves the recent ring, and the tracer's slow
	// log (if configured) receives threshold-crossing requests. Nil
	// disables tracing; per-endpoint histograms still record.
	Tracer *obs.Tracer
}

func (o Options) maxInflight() int {
	if o.MaxInflight <= 0 {
		return 64
	}
	return o.MaxInflight
}

func (o Options) maxBodyBytes() int64 {
	if o.MaxBodyBytes <= 0 {
		return 64 << 20
	}
	return o.MaxBodyBytes
}

func (o Options) maxGenerateVertices() int {
	if o.MaxGenerateVertices <= 0 {
		return 2_000_000
	}
	return o.MaxGenerateVertices
}

// servedGraph is one graph under service: a mutable store plus its engine
// handle.
type servedGraph struct {
	id      string
	st      *store.Store
	h       engine.StoreHandle
	created time.Time
}

// drainGate tracks in-flight admitted requests and the draining state
// without the Add-during-Wait hazard of a bare WaitGroup: enter refuses new
// work once draining, and the last exit signals idleness.
type drainGate struct {
	mu       sync.Mutex
	inflight int
	draining bool
	idle     chan struct{} // closed once draining && inflight == 0
}

func newDrainGate() *drainGate {
	return &drainGate{idle: make(chan struct{})}
}

// enter admits one request unless the gate is draining.
func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.inflight++
	return true
}

// exit retires one admitted request.
func (g *drainGate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if g.draining && g.inflight == 0 {
		select {
		case <-g.idle:
		default:
			close(g.idle)
		}
	}
}

// drain flips the gate to draining and returns the idle channel.
func (g *drainGate) drain() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	if g.inflight == 0 {
		select {
		case <-g.idle:
		default:
			close(g.idle)
		}
	}
	return g.idle
}

func (g *drainGate) stats() (inflight int, draining bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight, g.draining
}

// Server serves the engine over HTTP. Construct with New; a Server is an
// http.Handler, safe for concurrent use.
type Server struct {
	e    *engine.Engine
	opts Options
	mux  *http.ServeMux

	sem  chan struct{} // admission slots
	gate *drainGate

	admitted atomic.Uint64 // /v1 requests admitted past the gate
	shed     atomic.Uint64 // /v1 requests rejected 503 (overload or drain)

	// Replication plane counters (see replication.go): deltas this node
	// served to replicas, deltas it applied as a replica, and checkpoint
	// installs (resyncs) it accepted.
	deltasServed  atomic.Uint64
	deltasApplied atomic.Uint64
	installs      atomic.Uint64

	// replaying is the boot-time readiness latch: while set, /healthz
	// reports "replaying" (503) and /v1 requests are shed, so a load
	// balancer never routes traffic to a process still recovering its
	// stores from checkpoint + WAL.
	replaying atomic.Bool

	// httpm holds per-endpoint latency histograms and per-(endpoint,
	// status) counters; tracer (possibly nil) mints per-request traces.
	httpm  *httpMetrics
	tracer *obs.Tracer

	start time.Time

	mu     sync.Mutex
	graphs map[string]*servedGraph
	seq    uint64
}

// New wraps e in an HTTP serving layer. e may be shared with in-process
// callers (they see the same cache).
func New(e *engine.Engine, opts Options) *Server {
	s := &Server{
		e:      e,
		opts:   opts,
		mux:    http.NewServeMux(),
		sem:    make(chan struct{}, opts.maxInflight()),
		gate:   newDrainGate(),
		httpm:  newHTTPMetrics(),
		tracer: opts.Tracer,
		start:  time.Now(),
		graphs: make(map[string]*servedGraph),
	}
	s.routes()
	return s
}

// Engine returns the underlying engine (shared; e.g. for stats assertions).
func (s *Server) Engine() *engine.Engine { return s.e }

// AddGraph puts g under service through a fresh memory-only store and
// returns its graph id. The upload/generate endpoints use this path.
func (s *Server) AddGraph(g *graph.Graph) (string, engine.StoreHandle) {
	return s.AddStore(store.New(g))
}

// AddStore puts an existing store under service — the path cmd/serve uses
// for durable stores it created or recovered, so the serving layer never
// needs to know how the store came to be.
func (s *Server) AddStore(st *store.Store) (string, engine.StoreHandle) {
	h := s.e.RegisterStore(st)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("g%d", s.seq)
	s.graphs[id] = &servedGraph{id: id, st: st, h: h, created: time.Now()}
	return id, h
}

// SetReplaying flips the boot-time readiness latch (see Server.replaying).
func (s *Server) SetReplaying(v bool) { s.replaying.Store(v) }

// graphByID resolves a served graph.
func (s *Server) graphByID(id string) (*servedGraph, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sg, ok := s.graphs[id]
	return sg, ok
}

// removeGraph stops serving id; cached results for its snapshots age out of
// the engine LRU.
func (s *Server) removeGraph(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.graphs[id]; !ok {
		return false
	}
	delete(s.graphs, id)
	return true
}

// graphList returns the served graphs sorted by id sequence.
func (s *Server) graphList() []*servedGraph {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*servedGraph, 0, len(s.graphs))
	for _, sg := range s.graphs {
		out = append(out, sg)
	}
	return out
}

// Drain stops admitting new /v1 requests (they get 503) and waits until
// every in-flight request has finished, or ctx expires. It is safe to call
// more than once; after the first call the server never admits again.
//
// Before returning — idle or interrupted — Drain persists durable state:
// every durable store's WAL is fsynced and its hottest cache keys are
// written next to its checkpoint, so the next boot recovers the exact
// acknowledged state and prewarms the results this process was serving.
func (s *Server) Drain(ctx context.Context) error {
	idle := s.gate.drain()
	var drainErr error
	select {
	case <-idle:
	case <-ctx.Done():
		inflight, _ := s.gate.stats()
		drainErr = fmt.Errorf("server: drain interrupted with %d requests in flight: %w", inflight, ctx.Err())
	}
	return errors.Join(drainErr, s.persistDurable())
}

// maxHotKeys bounds the persisted hot-key list per graph: enough to warm
// the working set, small enough that prewarming never dominates boot.
const maxHotKeys = 64

// hotKeysFileName lives inside each durable store's directory; the store's
// own recovery ignores it (it only owns manifest/checkpoint/WAL files).
const hotKeysFileName = "hotkeys.json"

// persistDurable syncs and snapshots serving state for every durable graph.
// Best-effort across graphs: one failing store does not stop the others;
// all failures are joined into the returned error.
func (s *Server) persistDurable() error {
	var errs []error
	for _, sg := range s.graphList() {
		dir := sg.st.Dir()
		if dir == "" {
			continue
		}
		if err := sg.st.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("graph %s: sync: %w", sg.id, err))
		}
		fp := sg.st.Fingerprint()
		keys := s.e.HotKeys(fp, maxHotKeys)
		if len(keys) == 0 {
			continue // keep any previous list rather than erasing it
		}
		if err := engine.SaveHotKeys(filepath.Join(dir, hotKeysFileName), fp, keys); err != nil {
			errs = append(errs, fmt.Errorf("graph %s: hot keys: %w", sg.id, err))
		}
	}
	return errors.Join(errs...)
}

// Prewarm replays each durable graph's persisted hot-key list through the
// engine, so a restarted server answers its previous working set from
// cache. Missing or unreadable lists are skipped (prewarming is always
// best-effort); only a dead context aborts. Returns how many keys were
// warmed across all graphs.
func (s *Server) Prewarm(ctx context.Context) (int, error) {
	total := 0
	for _, sg := range s.graphList() {
		dir := sg.st.Dir()
		if dir == "" {
			continue
		}
		keys, _, err := engine.LoadHotKeys(filepath.Join(dir, hotKeysFileName))
		if err != nil {
			continue
		}
		n, err := s.e.Prewarm(ctx, sg.h, keys)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ServeHTTP implements http.Handler: health, metrics, and the debug
// endpoints bypass admission (they must stay observable under overload and
// during drain); everything else passes the drain check and the
// bounded-concurrency gate. Every request — admitted or shed — is timed
// into its endpoint's latency histogram and counted by terminal status.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	endpoint := classifyEndpoint(r)
	sw := &statusWriter{ResponseWriter: w}
	t0 := time.Now()
	defer func() {
		s.httpm.observe(endpoint, sw.status(), time.Since(t0))
	}()
	if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" || strings.HasPrefix(r.URL.Path, "/debug/") {
		s.mux.ServeHTTP(sw, r)
		return
	}
	if s.replaying.Load() {
		s.shed.Add(1)
		sw.Header().Set("Retry-After", "1")
		writeError(sw, http.StatusServiceUnavailable, "server starting: recovery in progress")
		return
	}
	if !s.gate.enter() {
		s.shed.Add(1)
		writeError(sw, http.StatusServiceUnavailable, "server draining")
		return
	}
	defer s.gate.exit()
	select {
	case s.sem <- struct{}{}:
	default:
		s.shed.Add(1)
		sw.Header().Set("Retry-After", "1")
		writeError(sw, http.StatusServiceUnavailable,
			fmt.Sprintf("overloaded: %d requests already in flight", cap(s.sem)))
		return
	}
	defer func() { <-s.sem }()
	s.admitted.Add(1)
	r.Body = http.MaxBytesReader(sw, r.Body, s.opts.maxBodyBytes())
	if s.tracer != nil {
		ctx, tr := s.tracer.Start(r.Context(), endpoint)
		r = r.WithContext(ctx)
		defer func() { tr.Finish(sw.status()) }()
	}
	s.mux.ServeHTTP(sw, r)
}
