// Command servebench measures the served path of the repository: store,
// engine, HTTP server and cluster router, built in-process behind real
// loopback listeners and driven through server.Client by closed-loop
// clients. It generates its inputs from --seed, measures for --seconds,
// checks every answer it keeps, and prints one JSON result as the last
// line of standard output: the end-to-end metrics with --trace 0, the
// per-layer metrics of a traced run with --trace 1.
//
//	go run . --workload hot-read --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The metrics the final JSON line carries; every workload measures each
// of them. BENCHMARK.json lists the same names and units.
var (
	endToEnd = []unitName{
		{"setup_s", "s"}, {"ops_per_s", "ops/s"}, {"read_mean_ms", "ms"}, {"read_p95_ms", "ms"},
		{"cpu_ms_per_op", "ms"}, {"peak_rss_mb", "MiB"},
	}
	perLayer = []unitName{
		{"server.run_handler_p50_us", "us"}, {"server.client_self_p50_us", "us"},
		{"server.resp_bytes_per_read", "bytes"}, {"engine.run_p50_us", "us"},
		{"algo.changli_p50_ms", "ms"}, {"algo.cpu_per_wall", "ratio"},
		{"graphio.read_ms", "ms"}, {"store.create_ms", "ms"},
		{"process.alloc_bytes_per_op", "bytes"}, {"process.gc_per_1k_ops", "count"},
		{"trace.read_mean_ms", "ms"},
	}
)

type unitName struct{ name, unit string }

// metric is one measured value, or a reason it does not apply.
type metric struct {
	name, unit string
	value      float64
	na         string
}

type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	tmp      string // parent of the durable stores' temp dirs
}

// outcome is what one run prints.
type outcome struct {
	attempted, failed int
	problems          []string
	checks            string // the output checks made, by kind
	metrics           []metric
	env               string
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the inputs and op streams")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.tmp, "tmp", ".bench_build/tmp", "directory for the durable stores")
	flag.Parse()
	cfg.window, cfg.trace = time.Duration(seconds)*time.Second, trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	line, err := out.result(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out.report(os.Stdout, cfg)
	fmt.Println(line)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func run(ctx context.Context, cfg config) (*outcome, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	ins := w.inputs(inputRNG(cfg.seed))
	var out *outcome
	var err error
	if cfg.trace {
		out, err = runTraced(ctx, cfg, w, ins)
	} else {
		out, err = runEndToEnd(ctx, cfg, w, ins)
	}
	if err != nil {
		return nil, err
	}
	out.env = environment(cfg, w, ins)
	return out, nil
}

// Set-up is repeated at least minSetups times and until setupBudget is
// spent (at most maxSetups); setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// runEndToEnd sets the stack up repeatedly, keeps the last one, and
// measures one untraced window on it.
func runEndToEnd(ctx context.Context, cfg config, w *workload, ins []*input) (*outcome, error) {
	var setups []float64
	var st *stack
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudget.Seconds() && len(setups) < maxSetups); {
		if st != nil {
			st.close()
			runtime.GC()
		}
		s, d, err := setup(ctx, w, ins, cfg.tmp, nil)
		if err != nil {
			return nil, err
		}
		st, setups = s, append(setups, d.Seconds())
		spent += d.Seconds()
	}
	defer st.close()
	runtime.GC()
	win := newLoadGen(st, ins, cfg.seed, nil).drive(ctx, cfg.window)
	out := check(ctx, w, ins, win.samples, st)
	out.metrics = append([]metric{{name: "setup_s", unit: "s", value: median(setups)}}, e2eMetrics(win)...)
	out.add("setup_reps", "count", float64(len(setups)), "")
	out.add("peak_rss_mb", "MiB", peakRSS(), "")
	return out, nil
}

// e2eMetrics computes the client-side metrics of one window. A failed op
// counts as infinitely slow. Throughput, mean read latency and CPU per op
// are medians over the window's sub-windows, each op counted in the
// sub-window it answered in.
func e2eMetrics(win *window) []metric {
	var reads, writes, compacts []float64
	byClass := map[string][]float64{}
	var done [subWindows]int
	var readSum [subWindows]float64
	var readN [subWindows]int
	completed := 0
	for _, sm := range win.samples {
		ms := math.Inf(1)
		if sm.err == nil {
			ms = float64(sm.lat) / 1e6
			completed++
		}
		sub := int(sm.start.Add(sm.lat).Sub(win.start) * subWindows / win.length)
		inWindow := sub < subWindows
		if inWindow && sm.err == nil {
			done[sub]++
		}
		switch {
		case sm.o.kind.isRead():
			reads = append(reads, ms)
			class := sm.o.kind.String()
			if sm.o.kind == opRun {
				class = sm.o.algo
			}
			byClass[class] = append(byClass[class], ms)
			if inWindow {
				readSum[sub] += ms
				readN[sub]++
			}
		case sm.o.kind.isWrite():
			writes = append(writes, ms)
		default:
			compacts = append(compacts, ms)
		}
	}
	var rate, readMean, cpuPerOp []float64
	subSecs := win.length.Seconds() / subWindows
	for i := 0; i < subWindows; i++ {
		rate = append(rate, float64(done[i])/subSecs)
		if readN[i] > 0 {
			readMean = append(readMean, readSum[i]/float64(readN[i]))
		}
		if done[i] > 0 {
			cpuPerOp = append(cpuPerOp, float64(win.cpuAt[i+1]-win.cpuAt[i])/1e6/float64(done[i]))
		}
	}
	var out []metric
	add := func(name, unit string, v float64, na string) {
		out = append(out, metric{name: name, unit: unit, value: v, na: na})
	}
	add("ops_per_s", "ops/s", median(rate), "")
	p50, p99, na50, na99 := tail(reads, "reads")
	if len(readMean) == 0 {
		add("read_mean_ms", "ms", 0, "no reads")
	} else {
		add("read_mean_ms", "ms", median(readMean), "")
	}
	add("read_p50_ms", "ms", p50, na50)
	add("read_p95_ms", "ms", quantile(reads, 0.95), na50)
	add("read_p99_ms", "ms", p99, na99)
	p50, p99, na50, na99 = tail(writes, "writes")
	add("write_p50_ms", "ms", p50, na50)
	add("write_p99_ms", "ms", p99, na99)
	p50, _, na50, _ = tail(compacts, "compactions")
	add("compact_p50_ms", "ms", p50, na50)
	add("fail_frac", "ratio", float64(len(win.samples)-completed)/float64(max(1, len(win.samples))), "")
	if len(cpuPerOp) == 0 {
		add("cpu_ms_per_op", "ms", 0, "no op completed")
	} else {
		add("cpu_ms_per_op", "ms", median(cpuPerOp), "")
	}
	for _, c := range slices.Sorted(maps.Keys(byClass)) {
		add("read_p50_ms."+c, "ms", quantile(byClass[c], 0.5), "")
		add("read_share."+c, "ratio", float64(len(byClass[c]))/float64(len(reads)), "")
	}
	add("window.ops_per_s_min", "ops/s", slices.Min(rate), "")
	add("window.ops_per_s_max", "ops/s", slices.Max(rate), "")
	return out
}

// tail returns the median and, given at least 1000 samples, the 99th
// percentile of xs.
func tail(xs []float64, what string) (p50, p99 float64, na50, na99 string) {
	if len(xs) == 0 {
		return 0, 0, "no " + what, "no " + what
	}
	p50 = quantile(xs, 0.5)
	if len(xs) < 1000 {
		return p50, 0, "", fmt.Sprintf("%d %s, p99 needs 1000", len(xs), what)
	}
	return p50, quantile(xs, 0.99), "", ""
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(1, len(xs)))
}

func (o *outcome) add(name, unit string, v float64, na string) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: v, na: na})
}

// check runs the output checks on a run's samples and counts its ops. A
// failed whole-run check counts as one more failed op.
func check(ctx context.Context, w *workload, ins []*input, samples []sample, st *stack) *outcome {
	ck := newChecker(ctx, w, ins)
	out := &outcome{problems: ck.run(samples, st), checks: ck.summary(), attempted: len(samples)}
	for _, sm := range samples {
		if sm.err != nil {
			out.failed++
		}
	}
	out.failed += len(out.problems)
	return out
}

// peakRSS reads the process's resident-set high-water mark in MiB.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// result renders the final JSON line with the named metrics. A named
// metric that is missing or not applicable is an error of the benchmark.
func (o *outcome) result(names []unitName) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, n := range names {
		i := slices.IndexFunc(o.metrics, func(m metric) bool { return m.name == n.name })
		switch {
		case i < 0:
			return "", fmt.Errorf("metric %s was not measured", n.name)
		case o.metrics[i].na != "":
			return "", fmt.Errorf("metric %s: %s", n.name, o.metrics[i].na)
		}
		v := o.metrics[i].value
		if math.IsInf(v, 1) {
			// JSON has no infinity: a tail made of failed ops reads 1e9 ms.
			v = 1e9
		}
		ms[n.name] = value{Value: v, Unit: n.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, max(1, o.attempted), o.failed, ms})
	return string(b), err
}

// report prints every metric the run measured, marking those that do not
// apply to the workload, with the environment and any failed check.
func (o *outcome) report(wr io.Writer, cfg config) {
	fmt.Fprintf(wr, "servebench %s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.trace)
	fmt.Fprintln(wr, o.env)
	for _, m := range o.metrics {
		if m.na != "" {
			fmt.Fprintf(wr, "  %-40s n/a (%s)\n", m.name, m.na)
		} else {
			fmt.Fprintf(wr, "  %-40s %.6g %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(wr, "ops: %d attempted, %d failed\n", o.attempted, o.failed)
	fmt.Fprintln(wr, "checks made:", o.checks)
	for _, p := range o.problems {
		fmt.Fprintln(wr, "check failed:", p)
	}
}

// environment describes what the run was captured under.
func environment(cfg config, w *workload, ins []*input) string {
	var graphs []string
	for _, in := range ins {
		graphs = append(graphs, fmt.Sprintf("%s(n=%d,m=%d)", in.name, in.n, len(in.edges)))
	}
	s := fmt.Sprintf("env: num_cpu=%d gomaxprocs=%d go=%s clients=%d closed_loop=true graphs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.clients, strings.Join(graphs, ","))
	if w.durable {
		s += " store_fs=" + fsType(cfg.tmp)
	}
	return s
}

// fsType names the file system under dir, where the WAL's fsyncs land.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x01021997: "9p", 0x6a656a63: "virtiofs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
