package main

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// Answers kept for the output checks: every write, every ILP answer, and
// of the other reads every keepEvery-th per client and kind, up to keepCap.
const (
	keepEvery = 8
	keepCap   = 24
)

// sample is one op as its client saw it.
type sample struct {
	o     *op
	start time.Time
	lat   time.Duration
	err   error
	resp  any // kept answer, nil when not kept
}

// subWindows is how many equal sub-windows a window is cut into. Throughput,
// mean latency and CPU per op are medians over the sub-windows, so a burst
// of interference from outside the process moves one sub-window, not the
// run.
const subWindows = 10

// window is one timed closed-loop window.
type window struct {
	samples    []sample // all clients, in start order
	start      time.Time
	length     time.Duration                 // the planned length; ops started before its end complete
	cpuAt      [subWindows + 1]time.Duration // process CPU at each sub-window boundary
	mem0, mem1 runtime.MemStats
}

// loadGen holds the per-client op streams across the windows of a run.
type loadGen struct {
	s       *stack
	ins     []*input
	streams []*stream
	applied atomic.Int64 // applied writes, for compaction
	tc      *tracer
}

func newLoadGen(s *stack, ins []*input, seed uint64, tc *tracer) *loadGen {
	g := &loadGen{s: s, ins: ins, tc: tc}
	for c := 0; c < s.w.clients; c++ {
		g.streams = append(g.streams, newStream(s.w, seed, c))
	}
	return g
}

// drive runs every client in a closed loop for d and waits for the last
// op started before the deadline to answer.
func (g *loadGen) drive(ctx context.Context, d time.Duration) *window {
	win := &window{}
	per := make([][]sample, len(g.streams))
	var wg sync.WaitGroup
	runtime.ReadMemStats(&win.mem0)
	start := time.Now()
	deadline := start.Add(d)
	win.start, win.length, win.cpuAt[0] = start, d, cpuTime()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= subWindows; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / subWindows)))
			win.cpuAt[i] = cpuTime()
		}
	}()
	for c := range g.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[c] = g.client(ctx, c, deadline)
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&win.mem1)
	for _, p := range per {
		win.samples = append(win.samples, p...)
	}
	slices.SortStableFunc(win.samples, func(a, b sample) int { return a.start.Compare(b.start) })
	return win
}

func (g *loadGen) client(ctx context.Context, c int, deadline time.Time) []sample {
	var out []sample
	var seen, kept [numOpKinds]int
	compact := false
	for time.Now().Before(deadline) {
		o := &op{kind: opCompact}
		if !compact {
			*o = g.streams[c].next(g.ins)
		}
		compact = false
		keep := o.kind.isWrite() || o.kind == opCompact || o.algo == "packing" || o.algo == "covering"
		if !keep && seen[o.kind]%keepEvery == 0 && kept[o.kind] < keepCap {
			keep = true
			kept[o.kind]++
		}
		seen[o.kind]++
		octx, end := g.tc.clientSpan(ctx, o.kind.String())
		start := time.Now()
		resp, err := g.s.do(octx, o)
		lat := time.Since(start)
		end(err)
		if mr, ok := resp.(*server.MutateResponse); ok && err == nil && mr.Applied && o.kind.isWrite() {
			if every := int64(g.s.w.compactEvery); every > 0 && g.applied.Add(1)%every == 0 {
				compact = true
			}
		}
		sm := sample{o: o, start: start, lat: lat, err: err}
		if keep {
			sm.resp = resp
		}
		out = append(out, sm)
	}
	return out
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
