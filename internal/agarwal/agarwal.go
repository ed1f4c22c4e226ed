// Package agarwal implements a deterministic exact MWC in the spirit of
// Agarwal's successor work on exact minimum weight cycle via multi-source
// shortest paths (arXiv:2310.00782): instead of one monolithic n-source
// APSP (internal/exact), the sources are processed in deterministic batches
// of k through proto.HopDist, and the best cycle weight found so far
// prunes every later batch.
//
// Per batch B of k sources the algorithm runs one exact multi-source
// shortest-path computation (proto.HopDist with no eps: pipelined BFS on
// unit weights, pipelined Bellman-Ford otherwise), extracts cycle
// candidates exactly as the APSP reduction does, and convergecasts the
// running minimum U. Later batches ask only for distances of at most U
// (HopDistSpec.Bound = U+1): larger estimates are discarded at record time
// and never forwarded.
//
// Pruning is lossless. U is always the weight of a real cycle, so the
// final answer is at most U at every point. Any candidate that beats the
// final answer decomposes as d(s,x) + w(x,y) + d(s,y) (or w(u,v) + d(v,u)
// directed) with every distance term strictly below U, and every prefix of
// a shortest path is at most the full distance — so all relaxations that
// realise the winning candidate survive the bound, and kept estimates are
// exact. Batching therefore returns bit-for-bit the same Weight/Found as
// the n-source APSP while peak per-node state drops from n to k fields and
// early cheap cycles cut the distance waves of every remaining batch.
//
// The schedule is fully deterministic: batches are vertex-ID order, no
// sampling, no eps. Memory per node is O(k) fields plus, on undirected
// graphs, the batch's neighbour rows (O(k) per neighbour), which the
// batch's own relaxation delivers (HopDistSpec.Rows).
package agarwal

import (
	"fmt"
	"math"

	"congestmwc/internal/congest"
	"congestmwc/internal/cyclewit"
	"congestmwc/internal/graph"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

// Spec configures a run.
type Spec struct {
	// BatchSize is the number of sources per batch; 0 selects
	// ceil(sqrt(n)), balancing the O(k + ecc) per-batch pipeline cost
	// against the n/k convergecast barriers.
	BatchSize int
	// NoPrune disables the candidate-driven weight bound (used by tests to
	// pin down that pruning never changes the answer).
	NoPrune bool
}

// Result is the outcome of a run.
type Result struct {
	// Weight of the minimum weight cycle; valid when Found.
	Weight int64
	// Found reports whether the graph contains a cycle.
	Found bool
	// Cycle is a validated witness vertex sequence (closing edge
	// implicit); nil when !Found.
	Cycle []int
	// Rounds consumed.
	Rounds int
	// Batches actually simulated (pruning may stop early when a
	// zero-weight cycle is found).
	Batches int
}

// witnessInfo records where a node's best candidate came from, enough to
// rebuild the cycle from that batch's predecessor trees afterwards.
type witnessInfo struct {
	res   *proto.MultiBFSResult
	field int // result column within the batch
	src   int // the batch source vertex of that column
	at    int // node holding the candidate
	via   int // other endpoint of the closing edge
}

// MWC computes the exact minimum weight cycle.
func MWC(net *congest.Network, spec Spec) (*Result, error) {
	g := net.Graph()
	n := g.N()
	k := spec.BatchSize
	if k <= 0 {
		k = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if k > n {
		k = n
	}
	dir := proto.Undirected
	if g.Directed() {
		dir = proto.Forward
	}
	startRounds := net.Stats().Rounds

	net.BeginPhase("agarwal:tree")
	tree, err := proto.BuildTree(net, 0)
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("agarwal: %w", err)
	}

	best := seq.Inf
	mu := make([]int64, n)
	for i := range mu {
		mu[i] = seq.Inf
	}
	witnesses := make([]witnessInfo, n)
	batches := 0
	for lo := 0; lo < n; lo += k {
		if best == 0 {
			// Non-negative weights: a zero-weight cycle is globally optimal,
			// so the remaining batches cannot improve on it.
			break
		}
		hi := lo + k
		if hi > n {
			hi = n
		}
		batch := make([]int, hi-lo)
		for i := range batch {
			batch[i] = lo + i
		}
		bound := int64(0)
		if !spec.NoPrune && best < seq.Inf {
			bound = best + 1
		}
		batches++

		// Undirected batches take the neighbour rows from the run itself.
		// Pruning leaves a row entry out only where d(s,y) + w(x,y) reaches
		// the bound, a candidate above best.
		net.BeginPhase("agarwal:batch-sssp")
		res, err := proto.HopDist(net, proto.HopDistSpec{Sources: batch, Dir: dir, Bound: bound, Rows: !g.Directed()})
		net.EndPhase()
		if err != nil {
			return nil, fmt.Errorf("agarwal: batch at %d: %w", lo, err)
		}

		if g.Directed() {
			field := func(v int) int {
				if v < lo || v >= hi {
					return -1
				}
				return v - lo
			}
			proto.ClosingArcScan{Dist: res.Dist, Field: field}.Scan(g, mu, func(u, v, i int) {
				witnesses[u] = witnessInfo{res: res, field: i, src: v, at: u, via: v}
			})
		} else {
			proto.NonTreeScan{Res: res, Recv: res.Rows}.Scan(g, mu, func(x, y, i int) {
				witnesses[x] = witnessInfo{res: res, field: i, src: lo + i, at: x, via: y}
			})
		}

		net.BeginPhase("agarwal:convergecast")
		minW, err := proto.ConvergecastMin(net, tree, mu)
		net.EndPhase()
		if err != nil {
			return nil, fmt.Errorf("agarwal: %w", err)
		}
		if minW < best {
			best = minW
		}
	}

	out := &Result{
		Weight:  best,
		Found:   best < seq.Inf,
		Rounds:  net.Stats().Rounds - startRounds,
		Batches: batches,
	}
	if out.Found {
		for v := 0; v < n; v++ {
			if mu[v] == best {
				out.Cycle = buildWitness(g, witnesses[v])
				break
			}
		}
	}
	return out, nil
}

// buildWitness reconstructs and validates the cycle behind a candidate.
func buildWitness(g *graph.Graph, w witnessInfo) []int {
	if w.res == nil {
		return nil
	}
	var cycle []int
	if g.Directed() {
		// Path src -> ... -> at in the tree of the batch column, closed by
		// the arc (at, src).
		cycle = cyclewit.PredPath(w.res, w.field, w.src, w.at)
	} else {
		cycle = cyclewit.FromTreePaths(w.res, w.field, w.src, w.at, w.via, -1)
	}
	if cycle == nil {
		return nil
	}
	if _, err := seq.VerifyCycle(g, cycle); err != nil {
		return nil
	}
	return cycle
}
