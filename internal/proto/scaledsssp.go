package proto

import (
	"fmt"
	"math"
	"math/rand"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

// Sample returns the deterministic shared-randomness sample of {0..n-1}
// with the given inclusion probability: every node of the network computes
// the same set locally from the shared seed (the model grants shared
// randomness; see Section 1.4 of the paper). The salt separates independent
// samples drawn from the same network seed.
func Sample(n int, prob float64, seed, salt int64) []int {
	rng := rand.New(rand.NewSource(seed*7_777_777 + salt))
	var out []int
	for v := 0; v < n; v++ {
		if rng.Float64() < prob {
			out = append(out, v)
		}
	}
	return out
}

// SampleProb returns the canonical sampling probability Theta(log n / h)
// used by the paper's long-cycle arguments: with this probability, any path
// of h hops contains a sampled vertex w.h.p. in n. factor tunes the
// constant.
func SampleProb(n, h int, factor float64) float64 {
	if h <= 0 {
		return 1
	}
	p := factor * math.Log(float64(n)+2) / float64(h)
	if p > 1 {
		return 1
	}
	return p
}

// ApproxHopSSSPSpec describes a (1+eps)-approximate h-hop-bounded multi-
// source SSSP computation on a weighted graph, implemented with the scaling
// technique of Section 5 ([41]): for each scale level i, run the unit-length
// multi-source BFS on the stretched scaled graph G^i (edge weight w becomes
// a ceil(2hw/(eps 2^i))-round traversal simulated at the tail endpoint) with
// hop budget h* = (1+2/eps)h, then take the per-pair minimum of the
// rescaled results.
//
// The returned estimates d' satisfy d <= d' and, for every pair whose
// shortest path has at most H arcs, d' <= (1+eps) d (w.h.p. exact level
// selection is deterministic, so this is a certainty, not a probability).
type ApproxHopSSSPSpec struct {
	// Sources lists the source vertices (global knowledge).
	Sources []int
	// H is the arc budget of the paths to approximate.
	H int
	// Eps is the accuracy parameter (> 0).
	Eps float64
	// Dir is the traversal direction.
	Dir Direction
	// Bound, when > 0, skips the levels that cannot produce an estimate
	// below it (graph.Scaling.LevelsBelow: levels i > 1 with
	// 2^(i-1) >= Bound). Every estimate below Bound is then exactly the
	// unbounded run's; larger ones are still upper bounds on the distance
	// but may exceed (1+eps) d or be missing.
	Bound int64
}

// RunApproxHopSSSP executes the spec. The input graph must be weighted (use
// plain RunMultiBFS for unweighted graphs, which is exact and cheaper).
func RunApproxHopSSSP(net *congest.Network, spec ApproxHopSSSPSpec) (*MultiBFSResult, error) {
	g := net.Graph()
	if spec.H <= 0 {
		return nil, fmt.Errorf("proto: approx SSSP needs positive hop budget, got %d", spec.H)
	}
	if spec.Eps <= 0 {
		return nil, fmt.Errorf("proto: approx SSSP needs positive eps, got %v", spec.Eps)
	}
	sc, err := graph.NewScaling(spec.H, spec.Eps, g.MaxWeight())
	if err != nil {
		return nil, fmt.Errorf("proto: %w", err)
	}
	n := g.N()
	k := len(spec.Sources)
	if k == 0 {
		return nil, fmt.Errorf("proto: no sources")
	}
	best := &MultiBFSResult{
		Dist: make([][]int64, n),
		Pred: make([][]int32, n),
	}
	for v := 0; v < n; v++ {
		best.Dist[v] = make([]int64, k)
		best.Pred[v] = make([]int32, k)
		for i := 0; i < k; i++ {
			best.Dist[v][i] = seq.Inf
			best.Pred[v][i] = -1
		}
	}
	hstar := int64(sc.HopBudget())
	for level := 1; level <= sc.LevelsBelow(spec.Bound); level++ {
		level := level
		res, err := RunMultiBFS(net, MultiBFSSpec{
			Sources: spec.Sources,
			Dir:     spec.Dir,
			Bound:   hstar,
			Stretch: true,
			Length: func(a graph.Arc) int64 {
				return sc.ScaleWeight(a.Weight, level)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("proto: scaled level %d: %w", level, err)
		}
		for v := 0; v < n; v++ {
			for i := 0; i < k; i++ {
				if res.Dist[v][i] >= seq.Inf {
					continue
				}
				est := int64(math.Ceil(sc.Unscale(res.Dist[v][i], level)))
				if est < best.Dist[v][i] {
					best.Dist[v][i] = est
					best.Pred[v][i] = res.Pred[v][i]
				}
			}
		}
		best.Rounds += res.Rounds
	}
	return best, nil
}
