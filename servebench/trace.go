package main

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opHeader carries the op id from the load generator (and from the router,
// for the requests it forwards) to every handler the op reaches.
const opHeader = "X-Bench-Op"

type opIDKey struct{}

// span is one timed call at a layer boundary: a client call, or a request
// through one in-process handler (the router or a backend).
type span struct {
	op         uint64
	layer      string // "client", "router", "node0", "node1"
	kind       string // op kind, or the endpoint for handler spans
	start, end time.Time
	status     int
	bytes      int64
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. A nil tracer traces
// nothing, so the untraced runs take the plain code path; on is switched
// off while a traced run measures its untraced reference window.
type tracer struct {
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// clientSpan mints an op id, stores it in the context for the transport,
// and returns the function that closes the span.
func (t *tracer) clientSpan(ctx context.Context, kind string) (context.Context, func(error)) {
	if !t.active() {
		return ctx, func(error) {}
	}
	id := t.next.Add(1)
	start := time.Now()
	return context.WithValue(ctx, opIDKey{}, id), func(err error) {
		status := http.StatusOK
		if err != nil {
			status = 0
		}
		t.record(span{op: id, layer: "client", kind: kind, start: start, end: time.Now(), status: status})
	}
}

// transport tags every outgoing request with the op id of its context.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return tagTransport{t: t, base: base}
}

type tagTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(opIDKey{}).(uint64); ok && tt.t.active() {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatUint(id, 10))
	}
	return tt.base.RoundTrip(r)
}

// wrap records a span for every request that reaches h and passes the op
// id on through the request context, so the router's forwarded requests
// carry it too. A nil tracer returns h itself.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if err != nil || !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), opIDKey{}, id)))
		t.record(span{op: id, layer: layer, kind: endpoint(r), start: start, end: time.Now(), status: cw.status, bytes: cw.bytes})
	})
}

// endpoint names the /v1 endpoint of a request by its last path element.
func endpoint(r *http.Request) string {
	p := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case p == "/v1/graphs" && r.Method == http.MethodPost:
		return "upload"
	case strings.HasSuffix(p, "/deltas") && r.Method == http.MethodPost:
		return "replicate"
	}
	return p[strings.LastIndexByte(p, '/')+1:]
}

type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// take returns the recorded spans grouped by op id and clears the buffer.
func (t *tracer) take() map[uint64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64][]span)
	for _, s := range t.spans {
		out[s.op] = append(out[s.op], s)
	}
	t.spans = nil
	return out
}
