package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// cmd/serve's default engine and server options.
var (
	engineOpts = engine.Options{RepairK: 16}
	serverOpts = server.Options{}
)

// listener is one in-process http.Handler behind a real loopback socket.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.hs.Close()
	<-l.done
}

// node is one serving backend: engine, server and, for the durable
// workload, the store it serves.
type node struct {
	e   *engine.Engine
	srv *server.Server
	l   *listener
	st  *store.Store
}

// stack is the serving stack of one workload: one node, or a router over
// two, plus the client the load generator drives it through.
type stack struct {
	w      *workload
	nodes  []*node
	rl     *listener // the router's listener, when there is one
	client *server.Client
	tr     *http.Transport
	ids    []string // served graph id per input, at the client's base URL
	dir    string   // durable store directory (removed by close)
}

// newTransport gives the load generator its own connection pool, sized
// for its clients, so idle-connection limits never close sockets mid-run.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return t
}

// setup builds the stack, hands it the generated inputs and sends the
// workload's warm-up requests. The returned duration is set-up time: from
// the first byte handed to the program to the end of the warm-up.
func setup(ctx context.Context, w *workload, ins []*input, tmp string, tc *tracer) (*stack, time.Duration, error) {
	s := &stack{w: w, tr: newTransport()}
	start := time.Now()
	err := s.build(ctx, ins, tmp, tc)
	if err == nil {
		for i := range w.warm {
			if _, err = s.do(ctx, &w.warm[i]); err != nil {
				err = fmt.Errorf("warm-up %s %s: %w", w.warm[i].kind, w.warm[i].algo, err)
				break
			}
		}
	}
	d := time.Since(start)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, d, nil
}

func (s *stack) build(ctx context.Context, ins []*input, tmp string, tc *tracer) error {
	nn := 1
	if s.w.routed {
		nn = 2
	}
	for i := 0; i < nn; i++ {
		e := engine.New(engineOpts)
		nd := &node{e: e, srv: server.New(e, serverOpts)}
		l, err := listen(tc.wrap(fmt.Sprintf("node%d", i), nd.srv))
		if err != nil {
			return err
		}
		nd.l = l
		s.nodes = append(s.nodes, nd)
	}
	base := s.nodes[0].l.url
	if s.w.routed {
		opts := cluster.Options{Nodes: []string{s.nodes[0].l.url, s.nodes[1].l.url}, Replicas: 2}
		if tc != nil {
			opts.HTTPClient = &http.Client{Transport: tc.transport(http.DefaultTransport)}
		}
		rt, err := cluster.New(opts)
		if err != nil {
			return err
		}
		if s.rl, err = listen(tc.wrap("router", rt)); err != nil {
			return err
		}
		base = s.rl.url
	}
	var rt http.RoundTripper = s.tr
	if tc != nil {
		rt = tc.transport(s.tr)
	}
	s.client = server.NewClient(base, &http.Client{Transport: rt})

	if s.w.durable {
		return s.createDurable(ins, tmp)
	}
	for _, in := range ins {
		info, err := upload(ctx, s.client, tc, in)
		if err != nil {
			return err
		}
		s.ids = append(s.ids, info.ID)
	}
	return nil
}

func upload(ctx context.Context, c *server.Client, tc *tracer, in *input) (*server.GraphInfo, error) {
	ctx, end := tc.clientSpan(ctx, "upload")
	info, err := c.Upload(ctx, "el", bytes.NewReader(in.bytes))
	end(err)
	if err != nil {
		return nil, fmt.Errorf("upload %s: %w", in.name, err)
	}
	return info, nil
}

// createDurable parses the edge list and creates a WAL-backed store in a
// fresh directory, the way cmd/serve -datadir does.
func (s *stack) createDurable(ins []*input, tmp string) error {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return err
	}
	s.dir = dir
	for i, in := range ins {
		g, err := graphio.Read(bytes.NewReader(in.bytes), graphio.EdgeList)
		if err != nil {
			return fmt.Errorf("parse %s: %w", in.name, err)
		}
		st, err := openStore(g, dir, i)
		if err != nil {
			return err
		}
		s.nodes[0].st = st
		id, _ := s.nodes[0].srv.AddStore(st)
		s.ids = append(s.ids, id)
	}
	return nil
}

// openStore wraps g in a memory-only store when dir is empty, else in a
// WAL-backed store in dir's i-th subdirectory with the default 2ms group
// commit.
func openStore(g *graph.Graph, dir string, i int) (*store.Store, error) {
	if dir == "" {
		return store.New(g), nil
	}
	return store.Create(g, store.Options{Dir: fmt.Sprintf("%s/%d", dir, i), Metrics: obs.NewWALMetrics()})
}

func (s *stack) close() {
	if s.rl != nil {
		s.rl.close()
	}
	for _, nd := range s.nodes {
		if nd.l != nil {
			nd.l.close()
		}
		if nd.st != nil {
			_ = nd.st.Close() // the directory is removed below
		}
	}
	s.tr.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// do sends one op and returns the decoded answer.
func (s *stack) do(ctx context.Context, o *op) (any, error) {
	id := s.ids[o.graph]
	c := s.client
	switch o.kind {
	case opRun:
		return c.Run(ctx, id, server.RunRequest{Algo: o.algo, Params: o.params})
	case opCluster:
		return c.Query(ctx, id, server.QueryRequest{Op: "cluster", Vertices: o.vertices,
			Eps: mixEps, Scale: mixScale, Seed: o.seed})
	case opBall:
		return c.Query(ctx, id, server.QueryRequest{Op: "ball", Vertices: o.vertices, Radius: o.radius})
	case opAdd:
		return c.AddEdge(ctx, id, int(o.u), int(o.v))
	case opDel:
		return c.DeleteEdge(ctx, id, int(o.u), int(o.v))
	case opCompact:
		return c.Compact(ctx, id)
	}
	return nil, errors.New("unknown op")
}
