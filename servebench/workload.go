package main

import (
	"math/rand/v2"
	"strconv"

	"repro/internal/algo"
)

type opKind uint8

const (
	opRun opKind = iota
	opCluster
	opBall
	opAdd
	opDel
	opCompact
	numOpKinds
)

var opNames = [numOpKinds]string{"run", "cluster", "ball", "addedge", "deledge", "compact"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isRead() bool  { return k <= opBall }
func (k opKind) isWrite() bool { return k == opAdd || k == opDel }

// op is one request of a workload's op stream.
type op struct {
	kind     opKind
	graph    int // index into the workload's inputs
	algo     string
	params   algo.Params
	seed     uint64 // ChangLi seed behind a cluster query
	vertices []int32
	radius   int
	u, v     int32
}

// workload is one traffic mix over one set of generated inputs. Every
// workload is a closed loop: each client sends its next op only after the
// previous one answered.
type workload struct {
	name    string
	clients int
	durable bool // serve from a WAL-backed store in a fresh temp dir
	routed  bool // serve through a router over two backends
	// compactEvery issues a compact after every that many applied writes.
	compactEvery int
	inputs       func(rng *rand.Rand) []*input
	warm         []op
	mix          []class
}

// class is one kind of op in a workload's mix, drawn weight times in every
// block of the client's op stream.
type class struct {
	weight int
	make   func(rng *rand.Rand, ins []*input) op
}

// stream is one client's op stream. Ops are drawn in shuffled blocks that
// hold every class exactly weight times, so the mix of any window is exact
// up to one block and its mean cost does not drift with the seed.
type stream struct {
	w     *workload
	rng   *rand.Rand
	block []int
}

func newStream(w *workload, seed uint64, client int) *stream {
	return &stream{w: w, rng: rand.New(rand.NewPCG(seed, clientStream+uint64(client)))}
}

func (s *stream) next(ins []*input) op {
	if len(s.block) == 0 {
		for i, c := range s.w.mix {
			for j := 0; j < c.weight; j++ {
				s.block = append(s.block, i)
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	c := s.w.mix[s.block[0]]
	s.block = s.block[1:]
	return c.make(s.rng, ins)
}

// The decomposition parameters of cmd/serve's synthetic mix.
const (
	mixEps   = 0.3
	mixScale = 0.05
)

func changli(graph int, seed uint64) op {
	return op{kind: opRun, graph: graph, algo: "changli", params: algo.Params{
		"eps":   strconv.FormatFloat(mixEps, 'g', -1, 64),
		"scale": strconv.FormatFloat(mixScale, 'g', -1, 64),
		"seed":  strconv.FormatUint(seed, 10),
	}}
}

func sparsecover(graph int, seed uint64) op {
	return op{kind: opRun, graph: graph, algo: "sparsecover", params: algo.Params{
		"lambda": "0.5", "seed": strconv.FormatUint(seed, 10),
	}}
}

func ilpRun(name, problem string, graph int, seed uint64) op {
	return op{kind: opRun, graph: graph, algo: name, params: algo.Params{
		"problem": problem, "seed": strconv.FormatUint(seed, 10),
	}}
}

// clusterQuery asks for the ChangLi cluster of 16 random vertices. Seeds
// start at 1: the server reads a zero seed as its default of 1.
func clusterQuery(rng *rand.Rand, n int, seed uint64) op {
	vs := make([]int32, 16)
	for i := range vs {
		vs[i] = int32(rng.IntN(n))
	}
	return op{kind: opCluster, seed: seed, vertices: vs}
}

func ballQuery(rng *rand.Rand, n int) op {
	return op{kind: opBall, vertices: []int32{int32(rng.IntN(n))}, radius: 1 + rng.IntN(3)}
}

// addEdge inserts a random pair and delEdge deletes an edge of the
// generated graph; a no-op (applied=false) is a valid answer to either.
func addEdge(rng *rand.Rand, ins []*input) op {
	n := ins[0].n
	u := int32(rng.IntN(n))
	v := int32(rng.IntN(n - 1))
	if v >= u {
		v++
	}
	return op{kind: opAdd, u: u, v: v}
}

func delEdge(rng *rand.Rand, ins []*input) op {
	e := ins[0].edges[rng.IntN(len(ins[0].edges))]
	return op{kind: opDel, u: e[0], v: e[1]}
}

// seedOf picks one of the k decomposition seeds the mix shares.
func seedOf(rng *rand.Rand, k int) uint64 { return uint64(1 + rng.IntN(k)) }

// freshSeed draws a seed no earlier request used, so the engine misses.
func freshSeed(rng *rand.Rand) uint64 { return 1 + rng.Uint64N(1<<53) }

func warmChangli(graph int, seeds int, repeat int) []op {
	var out []op
	for s := 1; s <= seeds; s++ {
		for r := 0; r < repeat; r++ {
			out = append(out, changli(graph, uint64(s)))
		}
	}
	return out
}

var workloads = []*workload{
	{
		name:    "hot-read",
		clients: 2,
		inputs: func(rng *rand.Rand) []*input {
			return []*input{gnpLike("gnp-50k", 50_000, 8, rng)}
		},
		warm: append(warmChangli(0, 4, 1), sparsecover(0, 1)),
		mix: []class{
			{4, func(rng *rand.Rand, _ []*input) op { return changli(0, seedOf(rng, 4)) }},
			{1, func(*rand.Rand, []*input) op { return sparsecover(0, 1) }},
			{3, func(rng *rand.Rand, ins []*input) op { return clusterQuery(rng, ins[0].n, seedOf(rng, 4)) }},
			{2, func(rng *rand.Rand, ins []*input) op { return ballQuery(rng, ins[0].n) }},
		},
	},
	{
		name:    "cold-compute",
		clients: 1,
		inputs: func(rng *rand.Rand) []*input {
			return []*input{gnpLike("gnp-5k", 5_000, 8, rng), gnpLike("gnp-500", 500, 8, rng)}
		},
		mix: []class{
			{5, func(rng *rand.Rand, _ []*input) op { return changli(0, freshSeed(rng)) }},
			{2, func(rng *rand.Rand, _ []*input) op { return sparsecover(0, freshSeed(rng)) }},
			{2, func(rng *rand.Rand, _ []*input) op { return ilpRun("packing", "mis", 1, freshSeed(rng)) }},
			{1, func(rng *rand.Rand, _ []*input) op { return ilpRun("covering", "mds", 1, freshSeed(rng)) }},
		},
	},
	{
		name:         "churn-durable",
		clients:      2,
		durable:      true,
		compactEvery: 500,
		inputs: func(*rand.Rand) []*input {
			return []*input{torus("torus-150x150", 150, 150)}
		},
		warm: warmChangli(0, 2, 1),
		mix: []class{
			{5, func(rng *rand.Rand, _ []*input) op { return changli(0, seedOf(rng, 2)) }},
			{3, func(rng *rand.Rand, ins []*input) op { return clusterQuery(rng, ins[0].n, seedOf(rng, 2)) }},
			{1, addEdge},
			{1, delEdge},
		},
	},
	{
		name:    "cluster-replicated",
		clients: 2,
		routed:  true,
		inputs: func(rng *rand.Rand) []*input {
			return []*input{gnpLike("gnp-20k", 20_000, 8, rng)}
		},
		// Reads rotate over the two members, so each seed is sent twice to
		// warm both caches.
		warm: warmChangli(0, 4, 2),
		mix: []class{
			{9, func(rng *rand.Rand, _ []*input) op { return changli(0, seedOf(rng, 4)) }},
			{5, func(rng *rand.Rand, ins []*input) op { return clusterQuery(rng, ins[0].n, seedOf(rng, 4)) }},
			{4, func(rng *rand.Rand, ins []*input) op { return ballQuery(rng, ins[0].n) }},
			{1, addEdge},
			{1, delEdge},
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Stream identifiers keep the inputs and each client's ops on independent
// PCG streams of the run seed.
const (
	inputStream  = 0x696e707574 // "input"
	clientStream = 0x636c69656e // "clien"
)

func inputRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, inputStream)) }
