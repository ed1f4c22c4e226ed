package graph

import (
	"fmt"
	"math"
	"math/bits"
)

// Scaling implements the weight-scaling scheme of Section 5 (originally from
// Nanongkai, STOC 2014). For a hop budget h and accuracy parameter eps, the
// i-th scaled graph G^i replaces each weight w by
//
//	w_i = ceil( 2*h*w / (eps * 2^i) )
//
// for i = 1 .. ceil(log2(h*W)). A shortest path P in G with weight w(P) and
// at most h hops is approximated, in the scaled graph with index
// i* = ceil(log2 w(P)), by a path whose scaled weight is at most
// h* = (1 + 2/eps) * h; rescaling a scaled weight c back by
// c * eps * 2^i / (2*h) yields a (1+eps)-approximation of w(P).
type Scaling struct {
	H      int     // hop budget of the paths being approximated
	Eps    float64 // accuracy parameter (> 0)
	MaxW   int64   // maximum edge weight of the original graph
	levels int
}

// NewScaling validates the parameters and returns a Scaling.
func NewScaling(h int, eps float64, maxW int64) (*Scaling, error) {
	if h <= 0 {
		return nil, fmt.Errorf("graph: scaling hop budget %d must be positive", h)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("graph: scaling eps %v must be positive", eps)
	}
	if maxW < 1 {
		maxW = 1
	}
	prod := float64(h) * float64(maxW)
	levels := int(math.Ceil(math.Log2(prod))) + 1
	if levels < 1 {
		levels = 1
	}
	return &Scaling{H: h, Eps: eps, MaxW: maxW, levels: levels}, nil
}

// Levels returns the number of scaled graphs, ceil(log2(h*W)) + 1. Level
// indices run from 1 to Levels.
func (s *Scaling) Levels() int { return s.levels }

// LevelsBelow returns how many leading levels to run when only estimates
// below bound matter: the levels i with 2^(i-1) < bound, and always level 1
// (bound <= 0 means no bound; all levels). Nothing is lost by the cut. For
// a fixed path the rescaled estimate never decreases with the level, so its
// best estimate comes from the lowest level j it fits in; if j > 1 the path
// does not fit at j-1, its level-j scaled weight exceeds h*/2, and its
// estimate exceeds 2^(j-1). An estimate below bound therefore always comes
// from a level with 2^(j-1) < bound. Equally, the level ceil(log2 w) that
// guarantees a (1+eps) estimate of a path of weight w < bound is kept.
func (s *Scaling) LevelsBelow(bound int64) int {
	if bound <= 0 {
		return s.levels
	}
	l := bits.Len64(uint64(bound - 1)) // largest i with 2^(i-1) < bound
	if l < 1 {
		l = 1
	}
	if l > s.levels {
		l = s.levels
	}
	return l
}

// HopBudget returns h* = ceil((1 + 2/eps) * h), the hop budget to use when
// exploring a stretched scaled graph.
func (s *Scaling) HopBudget() int {
	return int(math.Ceil((1 + 2/s.Eps) * float64(s.H)))
}

// ScaleWeight maps an original weight to level i. Weight-0 edges stay 0
// hops... they are mapped to scaled weight 0, which stretched-graph
// simulations treat as a 1-round traversal contributing nothing to the
// rescaled weight.
func (s *Scaling) ScaleWeight(w int64, i int) int64 {
	if w == 0 {
		return 0
	}
	num := 2 * float64(s.H) * float64(w)
	den := s.Eps * math.Pow(2, float64(i))
	return int64(math.Ceil(num / den))
}

// Unscale maps a scaled weight at level i back to the original scale.
func (s *Scaling) Unscale(c int64, i int) float64 {
	return float64(c) * s.Eps * math.Pow(2, float64(i)) / (2 * float64(s.H))
}

// Graph returns the level-i scaled graph of g (weighted, same topology).
func (s *Scaling) Graph(g *Graph, i int) *Graph {
	sg, err := g.ScaleWeights(func(w int64) int64 { return s.ScaleWeight(w, i) })
	if err != nil {
		// ScaleWeight is non-negative and topology is unchanged, so Build
		// cannot fail on a valid input graph.
		panic(err)
	}
	return sg
}
