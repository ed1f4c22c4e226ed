// Package girthapx implements a Chechik-Lifshitz-Mukhtar-style girth
// approximation (arXiv:2603.27601 direction) for undirected graphs,
// unweighted and weighted: a factor-2 approximation from one exact sampled
// shortest-path pass plus sigma-neighbourhood detection — no scaling
// levels and no eps dependence, which is what lets it undercut the paper's
// (2+eps) weighted bound on undirected inputs.
//
// Structure:
//
//  1. Sample W of ~sqrt(n)*log n vertices and compute EXACT shortest paths
//     from W with proto.HopDist (pipelined BFS on unit weights, pipelined
//     Bellman-Ford otherwise), which also hands each node its neighbours'
//     (dist, pred) rows. Candidates come from non-tree edges of each
//     sampled tree: for a minimum weight cycle C and u on C, the best
//     candidate from w is at most w(C) + 2 d(w,u).
//  2. Compute each vertex's sigma = ceil(sqrt(n)) nearest vertices with
//     top-sigma source detection; neighbours exchange their lists. Cycles
//     contained in the sigma-neighbourhoods of all their vertices are
//     found exactly.
//
// Coverage: if C escapes some vertex u's sigma-neighbourhood, then the
// neighbourhood radius r_sigma(u) is at most d(u,x) for the escaping
// x on C, and walking around the cheaper side of C gives d(u,x) <=
// w(C)/2. W hits the sigma-set N_sigma(u) w.h.p., so some sampled w has
// d(w,u) <= r_sigma(u) <= w(C)/2 and phase 1 reports at most 2 w(C).
// Otherwise C sits inside all its vertices' neighbourhoods and phase 2
// reports exactly w(C). Either way the result is a 2-approximation
// (2g - 1 on unweighted graphs: d(u,x) <= floor(g/2)), and every
// candidate is a closed walk containing a simple cycle, so reported
// weights never undercut the true MWC.
//
// Like internal/wmwc, the weighted variant requires weights >= 1: the
// sigma-detection runs on the stretched-graph simulation, which treats a
// zero-weight edge as a unit-length one and would distort distances.
package girthapx

import (
	"fmt"
	"math"

	"congestmwc/internal/congest"
	"congestmwc/internal/cyclewit"
	"congestmwc/internal/graph"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

const tagListEntry int64 = 601

// Spec configures one run.
type Spec struct {
	// SampleFactor tunes the Theta(log n / sqrt(n)) sampling constant
	// (default 3).
	SampleFactor float64
	// Sigma is the neighbourhood size (default ceil(sqrt(n))).
	Sigma int
	// Salt separates this run's shared-randomness sample.
	Salt int64
}

// Result is the outcome of a run.
type Result struct {
	// Weight is the weight of the lightest cycle found; valid when Found.
	Weight int64
	// Found reports whether any cycle was found.
	Found bool
	// Cycle is a validated witness (closing edge implicit) whose weight is
	// at most Weight; nil when !Found or the reconstruction degenerated.
	Cycle []int
	// Rounds consumed by this run.
	Rounds int
}

// witnessInfo records where a candidate was found so a concrete cycle can
// be reconstructed from the predecessor pointers afterwards.
type witnessInfo struct {
	res  *proto.MultiBFSResult
	src  int // tree source field index (result column)
	srcV int // tree source vertex
	x, y int // candidate edge endpoints
}

// Run executes the girth approximation on an undirected network.
func Run(net *congest.Network, spec Spec) (*Result, error) {
	g := net.Graph()
	if g.Directed() {
		return nil, fmt.Errorf("girthapx: graph must be undirected")
	}
	if g.Weighted() {
		if w, ok := minWeight(g); ok && w < 1 {
			return nil, fmt.Errorf("girthapx: weighted variant needs weights >= 1, got %d", w)
		}
	}
	n := g.N()
	factor := spec.SampleFactor
	if factor <= 0 {
		factor = 3
	}
	sigma := spec.Sigma
	if sigma <= 0 {
		sigma = int(math.Ceil(math.Sqrt(float64(n))))
	}
	var length func(a graph.Arc) int64
	if g.Weighted() {
		length = func(a graph.Arc) int64 { return a.Weight }
	}
	startRounds := net.Stats().Rounds
	best := make([]int64, n)
	wits := make([]witnessInfo, n)
	for i := range best {
		best[i] = seq.Inf
	}

	// Phase 1: exact shortest paths from the sampled set W.
	sqrtN := int(math.Ceil(math.Sqrt(float64(n))))
	w := proto.Sample(n, proto.SampleProb(n, sqrtN, factor), net.Options().Seed, 4000+spec.Salt)
	if len(w) == 0 {
		w = []int{0}
	}
	net.BeginPhase("girthapx:sampled-sssp")
	// Exact distances (no eps): the factor-2 argument has no room for a
	// (1+eps) error.
	resW, err := proto.HopDist(net, proto.HopDistSpec{Sources: w, Dir: proto.Undirected, Rows: true})
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("girthapx: sampled SSSP: %w", err)
	}
	proto.NonTreeScan{Res: resW, Recv: resW.Rows}.Scan(g, best, func(x, y, wi int) {
		wits[x] = witnessInfo{res: resW, src: wi, srcV: w[wi], x: x, y: y}
	})

	// Phase 2: sigma-nearest neighbourhoods via top-sigma source detection
	// on the stretched-graph simulation (exact distances for weights >= 1).
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	net.BeginPhase("girthapx:neighbourhood-bfs")
	resN, err := proto.RunMultiBFS(net, proto.MultiBFSSpec{
		Sources: all, Dir: proto.Undirected,
		TopSigma: sigma, Length: length, Stretch: true,
	})
	if err != nil {
		net.EndPhase()
		return nil, fmt.Errorf("girthapx: neighbourhood BFS: %w", err)
	}
	topSets := proto.TopSigmaSets(resN, sigma)
	recvN, err := proto.ExchangeDistPred(net, resN, tagListEntry, topSets)
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("girthapx: neighbourhood exchange: %w", err)
	}
	proto.NonTreeScan{Res: resN, Recv: recvN, Fields: topSets}.Scan(g, best, func(x, y, u int) {
		wits[x] = witnessInfo{res: resN, src: u, srcV: u, x: x, y: y}
	})

	// Global minimum via tree + convergecast.
	net.BeginPhase("girthapx:convergecast")
	tree, err := proto.BuildTree(net, 0)
	if err != nil {
		net.EndPhase()
		return nil, fmt.Errorf("girthapx: %w", err)
	}
	minW, err := proto.ConvergecastMin(net, tree, best)
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("girthapx: %w", err)
	}
	out := &Result{
		Weight: minW,
		Found:  minW < seq.Inf,
		Rounds: net.Stats().Rounds - startRounds,
	}
	if out.Found {
		for v := 0; v < n; v++ {
			if best[v] == minW {
				out.Cycle = buildCycle(g, wits[v])
				break
			}
		}
	}
	return out, nil
}

// minWeight returns the smallest edge weight of the graph (ok = false for
// an edgeless graph).
func minWeight(g *graph.Graph) (int64, bool) {
	minW, ok := int64(0), false
	for v := 0; v < g.N(); v++ {
		for _, a := range g.Out(v) {
			if !ok || a.Weight < minW {
				minW, ok = a.Weight, true
			}
		}
	}
	return minW, ok
}

// buildCycle reconstructs and validates the witness; nil when the
// reconstruction is degenerate or does not verify as a simple cycle of g.
func buildCycle(g *graph.Graph, w witnessInfo) []int {
	if w.res == nil {
		return nil
	}
	cycle := cyclewit.FromTreePaths(w.res, w.src, w.srcV, w.x, w.y, -1)
	if cycle == nil {
		return nil
	}
	if _, err := seq.VerifyCycle(g, cycle); err != nil {
		return nil
	}
	return cycle
}
