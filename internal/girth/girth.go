// Package girth implements Section 4 of the paper: a (2 - 1/g)-
// approximation of the girth (undirected unweighted MWC) in O~(sqrt(n) + D)
// rounds, and the h-hop-limited variant of Corollary 4.1 used by the
// weighted algorithms of Section 5 on stretched scaled graphs.
//
// Structure (Section 4):
//
//  1. Sample W of ~sqrt(n)*log n vertices; BFS from every w in W (pipelined
//     multi-source BFS). For every non-tree edge (x,y) of w's BFS tree,
//     record the candidate cycle d(w,x) + d(w,y) + len(x,y). For a minimum
//     weight cycle C that leaves the sigma-neighbourhood of one of its
//     vertices, some sampled w lies close to C w.h.p. and the candidate is
//     at most (2 - 1/g) * w(C).
//  2. Compute each vertex's sigma = ceil(sqrt(n)) nearest vertices with the
//     top-sigma source-detection BFS; neighbours exchange their lists.
//     Cycles contained in the neighbourhoods of all their vertices are then
//     found exactly: for u on C, some edge (x,y) of C is a non-tree edge of
//     u's shortest-path forest and d(u,x) + len(x,y) + d(u,y) = w(C).
//  3. The refinement to (2 - 1/g): cycles with exactly one vertex z outside
//     the neighbourhoods are caught at z, which sees its neighbours' lists:
//     candidate d(u,x) + len(x,z) + len(z,y) + d(u,y) over common sources u
//     of two distinct neighbours x, y.
//
// Every candidate is the length of a closed walk that provably contains a
// simple cycle (subject to the predecessor-edge exclusions implemented
// below), so reported weights never undercut the true MWC; the coverage
// argument bounds them from above.
//
// At small n (up to about 260 at the default constant) the sample W is all
// of V. Step 1 is then a BFS from every vertex, which finds the lightest
// cycle exactly, so by default Run skips steps 2-3 (Spec.PaperSchedule
// runs them). With unit lengths that BFS is also answer-bounded: a node
// stops forwarding a wave at distance d once it has seen a closed walk of
// weight at most 2d (proto.MultiBFSSpec.AnswerBound).
package girth

import (
	"fmt"
	"math"
	"slices"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

const tagListEntry int64 = 101

// Spec configures one run.
type Spec struct {
	// SampleFactor tunes the Theta(log n / sqrt(n)) sampling constant
	// (default 3).
	SampleFactor float64
	// Sigma is the neighbourhood size (default ceil(sqrt(n))).
	Sigma int
	// Bound, when positive, restricts the computation to cycles of weight
	// at most Bound (the h-hop-limited variant of Corollary 4.1; with unit
	// lengths weight = hops).
	Bound int64
	// Length gives per-arc lengths for the stretched-graph simulation of
	// Section 5 (nil = unit lengths).
	Length func(a graph.Arc) int64
	// Salt separates this phase's shared-randomness sample.
	Salt int64
	// PaperSchedule runs phases 2-3 even when the sample W is all of V,
	// where the default skips them (see Run), and sends phase 1's
	// neighbour rows in a separate exchange, where the default takes them
	// from the BFS itself. The Table 1 harness sets it to reproduce the
	// paper's round counts.
	PaperSchedule bool
}

// Result is the outcome of a run.
type Result struct {
	// Weight is the weight of the lightest cycle found; valid when Found.
	Weight int64
	// Found reports whether any cycle was found (within Bound, if set).
	Found bool
	// Cycle is a witness when one could be materialised from the
	// predecessor pointers: a simple cycle (closing edge implicit) whose
	// weight is at most Weight. Nil when !Found or when the winning
	// candidate's reconstruction was degenerate.
	Cycle []int
	// Rounds consumed by this run.
	Rounds int
}

// Run executes the girth approximation on an undirected network.
func Run(net *congest.Network, spec Spec) (*Result, error) {
	g := net.Graph()
	if g.Directed() {
		return nil, fmt.Errorf("girth: graph must be undirected")
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
	length := spec.Length
	if length == nil {
		length = func(graph.Arc) int64 { return 1 }
	}
	startRounds := net.Stats().Rounds
	best := make([]int64, n)
	wits := make([]witnessInfo, n)
	for i := range best {
		best[i] = seq.Inf
		wits[i].z = -1
	}

	// Phase 1: BFS from the sampled set W; candidates from non-tree edges.
	sqrtN := int(math.Ceil(math.Sqrt(float64(n))))
	w := proto.Sample(n, proto.SampleProb(n, sqrtN, factor), net.Options().Seed, 2000+spec.Salt)
	if len(w) == 0 {
		w = []int{0}
	}
	boundW := int64(0)
	if spec.Bound > 0 {
		boundW = 2 * spec.Bound
	}
	// The BFS hands each node its neighbours' rows; the paper schedule
	// exchanges them in a second step instead. The rows differ only where
	// d(w,y) + len(x,y) > boundW, a candidate above Bound either way.
	// W = V is global knowledge (shared randomness), so testing it costs no
	// rounds. The all-sources BFS with unit lengths then bounds itself by
	// the answer: a node stops forwarding a wave once it has seen a closed
	// walk of at most twice the wave's distance, which leaves every
	// candidate the minimum needs (DESIGN.md §3).
	phase1Exact := len(w) == n && !spec.PaperSchedule
	net.BeginPhase("girth:sampled-bfs")
	resW, err := proto.RunMultiBFS(net, proto.MultiBFSSpec{
		Sources: w, Dir: proto.Undirected, Bound: boundW, Length: spec.Length, Stretch: true,
		Rows: !spec.PaperSchedule, AnswerBound: phase1Exact && spec.Length == nil,
	})
	if err == nil && spec.PaperSchedule {
		resW.Rows, err = proto.ExchangeDistPred(net, resW, tagListEntry, nil)
	}
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("girth: sampled BFS: %w", err)
	}
	proto.NonTreeScan{Res: resW, Recv: resW.Rows, Length: length}.Scan(g, best, func(x, y, wi int) {
		wits[x] = witnessInfo{res: resW, src: wi, srcV: w[wi], x: x, y: y, z: -1}
	})

	// With W = V, phase 1 is a BFS from every vertex, which already finds
	// the lightest cycle exactly; phases 2-3 cannot lower the minimum and
	// are skipped.
	if !phase1Exact {
		if err := neighbourhoodCandidates(net, sigma, spec.Bound, length, best, wits); err != nil {
			return nil, err
		}
	}

	if spec.Bound > 0 {
		for i := range best {
			if best[i] > spec.Bound {
				best[i] = seq.Inf
			}
		}
	}

	// Global minimum via tree + convergecast.
	net.BeginPhase("girth:convergecast")
	tree, err := proto.BuildTree(net, 0)
	if err != nil {
		net.EndPhase()
		return nil, fmt.Errorf("girth: %w", err)
	}
	minW, err := proto.ConvergecastMin(net, tree, best)
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("girth: %w", err)
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

// neighbourhoodCandidates runs phases 2-3: the sigma-nearest neighbourhoods
// by top-sigma source detection, the exact candidates inside them and the
// one-vertex-outside refinement. It lowers best and records wits in place.
func neighbourhoodCandidates(net *congest.Network, sigma int, bound int64, length func(graph.Arc) int64, best []int64, wits []witnessInfo) error {
	g := net.Graph()
	n := g.N()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	net.BeginPhase("girth:neighbourhood-bfs")
	resN, err := proto.RunMultiBFS(net, proto.MultiBFSSpec{
		Sources: all, Dir: proto.Undirected, Bound: bound,
		TopSigma: sigma, Length: length, Stretch: true,
	})
	if err != nil {
		net.EndPhase()
		return fmt.Errorf("girth: neighbourhood BFS: %w", err)
	}
	topSets := proto.TopSigmaSets(resN, sigma)
	recvN, err := proto.ExchangeDistPred(net, resN, tagListEntry, topSets)
	net.EndPhase()
	if err != nil {
		return fmt.Errorf("girth: neighbourhood exchange: %w", err)
	}

	// Phase 2 candidates: edges within neighbourhoods (exact for cycles
	// contained in all their vertices' neighbourhoods).
	proto.NonTreeScan{Res: resN, Recv: recvN, Length: length, Fields: topSets}.Scan(g, best, func(x, y, u int) {
		wits[x] = witnessInfo{res: resN, src: u, srcV: u, x: x, y: y, z: -1}
	})

	// Phase 3 candidates (the 2 - 1/g refinement): at each z, combine two
	// distinct neighbours' list entries for a common source u. arms is a
	// dense table over sources, reset after each z through the touched list
	// and visited in ascending u.
	type arm struct {
		d1, d2 int64 // two smallest d(u,x)+len(x,z) over distinct x
		x1, x2 int
	}
	arms := make([]arm, n)
	for u := range arms {
		arms[u].x1 = -1
	}
	var touched []int
	for z := 0; z < n; z++ {
		for _, a := range g.Out(z) {
			x := a.To
			al := length(a)
			for _, e := range recvN.Entries(z, recvN.Slot(z, x)) {
				u := e.Field
				if e.A >= seq.Inf || u == z || u == x || e.B == int64(z) {
					continue
				}
				c := e.A + al
				ar := &arms[u]
				if ar.x1 < 0 {
					*ar = arm{d1: c, d2: seq.Inf, x1: x, x2: -1}
					touched = append(touched, u)
					continue
				}
				switch {
				case c < ar.d1:
					if ar.x1 != x {
						ar.d2, ar.x2 = ar.d1, ar.x1
					}
					ar.d1, ar.x1 = c, x
				case ar.x1 != x && c < ar.d2:
					ar.d2, ar.x2 = c, x
				}
			}
		}
		slices.Sort(touched)
		for _, u := range touched {
			ar := &arms[u]
			if ar.d2 < seq.Inf {
				if c := ar.d1 + ar.d2; c < best[z] {
					best[z] = c
					wits[z] = witnessInfo{res: resN, src: u, srcV: u, x: ar.x1, y: ar.x2, z: z}
				}
			}
			ar.x1 = -1
		}
		touched = touched[:0]
	}
	return nil
}
