// Command ldd runs any registered decomposition algorithm on a generated
// graph and prints cluster statistics. Algorithms are resolved through the
// unified registry (internal/algo), so every family — chang-li,
// elkin-neiman, blackbox, mpx, weighted, sparsecover, netdecomp — is
// invocable by name, and -timeout puts a deadline on the run.
//
// Usage:
//
//	ldd -graph cycle -n 2000 -eps 0.2 -algo chang-li [-seed 1] [-scale 0.01] [-repair]
//	ldd -graph grid -n 4000 -algo netdecomp -params "lambda=0.4"
//	ldd -graph gnp -n 100000 -algo chang-li -timeout 2s
//
// Graphs: cycle, path, grid (n = side²), torus, complete, tree (binary),
// gnp (p = 4/n), regular (d=4), cliquepath, hypercube (n = 2^⌈log2 n⌉).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ldd:", err)
		os.Exit(1)
	}
}

// buildGraph constructs the requested topology on roughly n vertices.
func buildGraph(kind string, n int, seed uint64) (*graph.Graph, error) {
	if n < 2 {
		return nil, errors.New("n must be >= 2")
	}
	rng := xrand.New(seed + 0x96af)
	switch kind {
	case "cycle":
		return gen.Cycle(n), nil
	case "path":
		return gen.Path(n), nil
	case "grid":
		side := int(math.Round(math.Sqrt(float64(n))))
		return gen.Grid(side, side), nil
	case "torus":
		side := int(math.Round(math.Sqrt(float64(n))))
		return gen.Torus(side, side), nil
	case "complete":
		return gen.Complete(n), nil
	case "tree":
		depth := int(math.Ceil(math.Log2(float64(n + 1))))
		return gen.CompleteDAryTree(2, depth-1), nil
	case "gnp":
		return gen.GNP(n, 4/float64(n), rng), nil
	case "regular":
		return gen.RandomRegular(n, 4, rng), nil
	case "cliquepath":
		return gen.CliquePlusPath(n/2, n-n/2), nil
	case "hypercube":
		d := int(math.Ceil(math.Log2(float64(n))))
		return gen.Hypercube(d), nil
	default:
		return nil, fmt.Errorf("unknown graph %q", kind)
	}
}

// specParams builds the registry parameter bag from the CLI flags: -eps
// maps onto the spec's eps (or lambda) parameter, and seed/scale/repair are
// forwarded when the spec declares them. -params tokens override.
func specParams(spec *algo.Spec, eps float64, seed uint64, scale float64, repair bool, extra string) (algo.Params, error) {
	p, err := algo.ParseParamString(extra)
	if err != nil {
		return nil, err
	}
	set := func(key, val string) {
		if _, overridden := p[key]; !overridden && spec.Has(key) {
			p[key] = val
		}
	}
	set("eps", strconv.FormatFloat(eps, 'g', -1, 64))
	set("lambda", strconv.FormatFloat(eps, 'g', -1, 64))
	set("seed", strconv.FormatUint(seed, 10))
	set("scale", strconv.FormatFloat(scale, 'g', -1, 64))
	if repair {
		set("repair", "true")
	}
	return p, nil
}

// largestCluster returns the size of the biggest cluster in d.
func largestCluster(d *ldd.Decomposition) int {
	counts := make([]int, d.NumClusters)
	best := 0
	for _, c := range d.ClusterOf {
		if c >= 0 {
			counts[c]++
			if counts[c] > best {
				best = counts[c]
			}
		}
	}
	return best
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ldd", flag.ContinueOnError)
	graphKind := fs.String("graph", "cycle", "graph family")
	n := fs.Int("n", 1000, "approximate vertex count")
	eps := fs.Float64("eps", 0.2, "epsilon (unclustered fraction bound / lambda)")
	algoName := fs.String("algo", "chang-li", "registry algorithm: "+strings.Join(algo.Names(), " | "))
	seed := fs.Uint64("seed", 1, "random seed")
	scale := fs.Float64("scale", 0, "radius scale (0 = paper constants)")
	repair := fs.Bool("repair", false, "repair cluster diameters to the ideal bound")
	timeout := fs.Duration("timeout", 0, "deadline for the run (0 = none)")
	extra := fs.String("params", "", "extra key=value registry parameters (override flags)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := algo.Get(*algoName)
	if !ok {
		return fmt.Errorf("unknown algorithm %q (registry has %s)", *algoName, strings.Join(algo.Names(), ", "))
	}
	g, err := buildGraph(*graphKind, *n, *seed)
	if err != nil {
		return err
	}
	ws := graph.AcquireWorkspace()
	ecc := g.EccentricityWithWorkspace(ws, 0)
	graph.ReleaseWorkspace(ws)
	fmt.Fprintf(w, "graph: %s %v (diameter sample: eccentricity(0) = %d)\n", *graphKind, g, ecc)

	p, err := specParams(spec, *eps, *seed, *scale, *repair, *extra)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := spec.RunSpec(ctx, g, p)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("run exceeded the %v deadline: %w", *timeout, err)
		}
		return err
	}
	fmt.Fprintf(w, "%s: %s\n", spec.Name, res.Summary())

	// Partition-shaped results get the separation and diameter report.
	if d, ok := res.Raw.(*ldd.Decomposition); ok {
		ok, u, v := d.ValidateSeparation(g)
		fmt.Fprintf(w, "separation valid: %v", ok)
		if !ok {
			fmt.Fprintf(w, " (violated at %d-%d)", u, v)
		}
		fmt.Fprintln(w)
		// The weak-diameter report costs O(|C|) BFS runs per cluster; on a
		// huge cluster that dwarfs the decomposition itself (and ignores
		// -timeout), so it is skipped rather than silently hanging.
		if big := largestCluster(d); big <= 10000 {
			if wd := d.MaxWeakDiameter(g); wd >= 0 {
				fmt.Fprintf(w, "max weak diameter: %d\n", wd)
			}
		} else {
			fmt.Fprintf(w, "max weak diameter: skipped (largest cluster has %d vertices)\n", big)
		}
	}
	return nil
}
