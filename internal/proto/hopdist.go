package proto

import (
	"fmt"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

// HopDistSpec describes one multi-source distance computation by what the
// caller needs (sources, direction, hop budget, weight bound, accuracy);
// HopDist decides how to compute it.
type HopDistSpec struct {
	// Sources lists the source vertices; field i of the result corresponds
	// to Sources[i].
	Sources []int
	// H is the hop budget: only paths of at most H arcs need to be
	// represented (0 = unbounded).
	H int
	// Bound, when > 0, asks only for distances below it: every returned
	// distance is < Bound and equals what the run without Bound returns;
	// every other entry is seq.Inf (Pred -1). Callers use it for
	// candidate-driven pruning: once a cycle of weight U is known, a
	// distance of U or more cannot help beat it.
	Bound int64
	// Eps > 0 asks for (1+eps)-approximate distances; 0 asks for exact ones.
	Eps float64
	// Dir is the traversal direction.
	Dir Direction
	// Rows asks the exact engines for the neighbour rows of the run
	// (MultiBFSSpec.Rows), filtered like the distances when Bound is set.
	// Only with Eps == 0 on undirected graphs.
	Rows bool
}

// HopDist computes multi-source distances on the network. It is the one
// place that picks a shortest-path engine:
//
//   - Eps > 0: the scaled (1+eps)-approximate h-hop SSSP of Section 5
//     (RunApproxHopSSSP; a zero H becomes n). Bound skips the scaling
//     levels that cannot produce an estimate below it.
//   - Eps == 0 on unit weights (UnitWeights): pipelined multi-source BFS,
//     exact within H hops, O(k + h) rounds for k sources.
//   - Eps == 0 otherwise: pipelined distributed Bellman-Ford on the arc
//     weights, exact on any non-negative weights, zero included. It relaxes
//     to a fixpoint and ignores H, which can only shorten distances.
//
// The exact engines discard estimates of Bound or more at record time, so
// they are never forwarded. Result fields follow MultiBFSResult conventions.
func HopDist(net *congest.Network, spec HopDistSpec) (*MultiBFSResult, error) {
	if spec.Rows && spec.Eps > 0 {
		return nil, fmt.Errorf("proto: neighbour rows need exact distances (Eps == 0)")
	}
	g := net.Graph()
	// Distances are integers, so d < Bound is d <= Bound-1, the inclusive
	// MultiBFSSpec.Bound. Bound 1 maps to 0 (no pruning) and relies on the
	// filter below.
	prune := spec.Bound - 1
	var res *MultiBFSResult
	var err error
	switch {
	case spec.Eps > 0:
		h := spec.H
		if h <= 0 {
			h = g.N()
		}
		res, err = RunApproxHopSSSP(net, ApproxHopSSSPSpec{
			Sources: spec.Sources, H: h, Eps: spec.Eps, Dir: spec.Dir, Bound: spec.Bound,
		})
	case UnitWeights(g):
		// Unit lengths make hops and weight the same measure.
		if h := int64(spec.H); h > 0 && (prune <= 0 || h < prune) {
			prune = h
		}
		res, err = RunMultiBFS(net, MultiBFSSpec{Sources: spec.Sources, Dir: spec.Dir, Bound: prune, Rows: spec.Rows})
	default:
		res, err = RunMultiBFS(net, MultiBFSSpec{
			Sources: spec.Sources, Dir: spec.Dir, Bound: prune, Rows: spec.Rows,
			Length: func(a graph.Arc) int64 { return a.Weight },
		})
	}
	if err != nil || spec.Bound <= 0 {
		return res, err
	}
	for v := range res.Dist {
		for i, d := range res.Dist[v] {
			if d >= spec.Bound && d < seq.Inf {
				res.Dist[v][i] = seq.Inf
				res.Pred[v][i] = -1
			}
		}
	}
	if res.Rows != nil {
		// Pruning at Bound-1 already drops the rest, except under Bound 1.
		for i, e := range res.Rows.dense {
			if e.A >= spec.Bound && e.A < seq.Inf {
				res.Rows.dense[i] = absent
			}
		}
	}
	return res, nil
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
