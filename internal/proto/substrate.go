package proto

import (
	"fmt"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

// HopDistSpec describes one multi-source bounded-distance computation in
// substrate-neutral terms. It is the contract of the pluggable-SSSP seam:
// MWC algorithms describe WHAT distances they need (sources, direction,
// hop budget, weight bound), a Substrate decides HOW to compute them.
type HopDistSpec struct {
	// Sources lists the source vertices; field i of the result corresponds
	// to Sources[i].
	Sources []int
	// H is the hop budget: only paths of at most H arcs need to be
	// represented (0 = unbounded). Substrates that relax to a fixpoint
	// (Bellman-Ford) may return shorter paths with more hops; that is
	// always sound for distance consumers.
	H int
	// Bound caps recorded distances by weight: estimates above Bound are
	// discarded (<= 0 = unbounded). Callers use it for candidate-driven
	// pruning: once an upper bound U on the answer is known, distances
	// beyond U cannot contribute.
	Bound int64
	// Eps is the accuracy parameter for approximate substrates; exact
	// substrates ignore it.
	Eps float64
	// Dir is the traversal direction.
	Dir Direction
	// Budget caps the rounds of the run (<= 0: default).
	Budget int
}

// Substrate is one interchangeable multi-source shortest-path engine on the
// CONGEST simulator. Algorithms take one in their Spec (nil selects
// DefaultSubstrate) so a caller can swap engines per run without the MWC
// logic knowing which engines exist.
type Substrate interface {
	// Name identifies the substrate in errors and logs.
	Name() string
	// Exact reports whether returned distances are exact (required by
	// exact MWC algorithms; approximate substrates return (1+eps) bounds).
	Exact() bool
	// Supports reports whether the substrate handles the given edge-weight
	// regime (weighted = general non-negative weights; unweighted = unit).
	Supports(weighted bool) bool
	// Run computes the distances. Result fields follow MultiBFSResult
	// conventions: Dist[v][i] approximates d(Sources[i], v) (direction per
	// spec.Dir), Pred[v][i] is the final edge of the realized path.
	Run(net *congest.Network, spec HopDistSpec) (*MultiBFSResult, error)
}

// UnitWeights reports whether every arc of the graph has length exactly 1
// under the weighted semantics — the regime where hop counting and weighted
// distance coincide. Note that MaxWeight() == 1 alone is NOT enough: a
// weighted graph may mix weight-0 and weight-1 edges, and treating it as
// unit-weight silently miscomputes distances (hence minimum weight cycles).
func UnitWeights(g *graph.Graph) bool {
	if !g.Weighted() {
		return true
	}
	if g.MaxWeight() > 1 {
		return false
	}
	for v := 0; v < g.N(); v++ {
		for _, a := range g.Out(v) {
			if a.Weight != 1 {
				return false
			}
		}
	}
	return true
}

// combineBounds merges two upper bounds where 0 means "unbounded".
func combineBounds(a, b int64) int64 {
	if a <= 0 {
		return b
	}
	if b <= 0 || a < b {
		return a
	}
	return b
}

// BFSSubstrate is the pipelined multi-source BFS (Lenzen-Patt-Shamir source
// detection): exact on unweighted graphs, O(k+h) rounds for k sources and
// hop budget h.
type BFSSubstrate struct{}

// Name implements Substrate.
func (BFSSubstrate) Name() string { return "bfs" }

// Exact implements Substrate.
func (BFSSubstrate) Exact() bool { return true }

// Supports implements Substrate: unit lengths only.
func (BFSSubstrate) Supports(weighted bool) bool { return !weighted }

// Run implements Substrate.
func (BFSSubstrate) Run(net *congest.Network, spec HopDistSpec) (*MultiBFSResult, error) {
	if !UnitWeights(net.Graph()) {
		return nil, fmt.Errorf("proto: bfs substrate needs unit weights")
	}
	// Unit lengths make hops and weight the same measure.
	return RunMultiBFS(net, MultiBFSSpec{
		Sources: spec.Sources,
		Dir:     spec.Dir,
		Bound:   combineBounds(int64(spec.H), spec.Bound),
		Budget:  spec.Budget,
	})
}

// BellmanFordSubstrate is the pipelined distributed Bellman-Ford (plain
// weighted CONGEST: weights are data, every message crosses its edge in one
// round). It is exact on any non-negative weights, including zero, at the
// cost of worse worst-case round bounds than the scaled engine — the right
// trade for exact MWC algorithms and for moderate-weight instances.
type BellmanFordSubstrate struct{}

// Name implements Substrate.
func (BellmanFordSubstrate) Name() string { return "bellman-ford" }

// Exact implements Substrate.
func (BellmanFordSubstrate) Exact() bool { return true }

// Supports implements Substrate: any weight regime.
func (BellmanFordSubstrate) Supports(weighted bool) bool { return true }

// Run implements Substrate. The hop budget is honoured exactly on
// unweighted graphs (hops == weight there); on weighted graphs relaxation
// runs to a fixpoint under the weight Bound only, which can only produce
// shorter (still exact) distances than an H-hop truncation.
func (BellmanFordSubstrate) Run(net *congest.Network, spec HopDistSpec) (*MultiBFSResult, error) {
	g := net.Graph()
	sub := MultiBFSSpec{
		Sources: spec.Sources,
		Dir:     spec.Dir,
		Bound:   spec.Bound,
		Budget:  spec.Budget,
	}
	if g.Weighted() {
		sub.Length = func(a graph.Arc) int64 { return a.Weight }
	} else {
		sub.Bound = combineBounds(int64(spec.H), spec.Bound)
	}
	return RunMultiBFS(net, sub)
}

// ScaledSubstrate is the (1+eps)-approximate h-hop SSSP of Section 5
// (scaling levels over the stretched-graph simulation). It is the paper's
// weighted substrate: sublinear-friendly round bounds, approximate answers.
type ScaledSubstrate struct{}

// Name implements Substrate.
func (ScaledSubstrate) Name() string { return "scaled" }

// Exact implements Substrate.
func (ScaledSubstrate) Exact() bool { return false }

// Supports implements Substrate: weighted graphs only (plain BFS is exact
// and cheaper on unit weights).
func (ScaledSubstrate) Supports(weighted bool) bool { return weighted }

// Run implements Substrate. A zero hop budget defaults to n (all simple
// paths). The weight Bound skips the levels that cannot produce an
// estimate within it and is then applied as a post-filter: the levels
// that do run keep their own hop-budget bound, since pruning inside them
// would interact with the (1+eps) rounding, and estimates above Bound are
// dropped afterwards.
func (ScaledSubstrate) Run(net *congest.Network, spec HopDistSpec) (*MultiBFSResult, error) {
	if spec.Eps <= 0 {
		return nil, fmt.Errorf("proto: scaled substrate needs eps > 0")
	}
	h := spec.H
	if h <= 0 {
		h = net.Graph().N()
	}
	aspec := ApproxHopSSSPSpec{
		Sources: spec.Sources,
		H:       h,
		Eps:     spec.Eps,
		Dir:     spec.Dir,
		Budget:  spec.Budget,
	}
	if spec.Bound > 0 {
		aspec.Bound = spec.Bound + 1 // keep estimates <= Bound
	}
	res, err := RunApproxHopSSSP(net, aspec)
	if err != nil {
		return nil, err
	}
	if spec.Bound > 0 {
		for v := range res.Dist {
			for i, d := range res.Dist[v] {
				if d > spec.Bound && d < seq.Inf {
					res.Dist[v][i] = seq.Inf
					res.Pred[v][i] = -1
				}
			}
		}
	}
	return res, nil
}

// DefaultSubstrate returns the class-default engine: exact BFS for
// unweighted graphs; for weighted graphs the scaled (1+eps) engine when an
// accuracy parameter is given, exact Bellman-Ford otherwise.
func DefaultSubstrate(weighted bool, eps float64) Substrate {
	if !weighted {
		return BFSSubstrate{}
	}
	if eps > 0 {
		return ScaledSubstrate{}
	}
	return BellmanFordSubstrate{}
}
