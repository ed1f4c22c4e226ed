// Package wmwc implements Section 5 of the paper: (2+eps)-approximation of
// weighted MWC in O~(n^{2/3} + D) rounds for undirected graphs (Theorem
// 1.4.C) and O~(n^{4/5} + D) rounds for directed graphs (Theorem 1.2.D).
//
// Both algorithms split cycles by hop count at a threshold h:
//
//   - Long cycles (>= h hops): sample k = Theta~(n/h) vertices so that
//     w.h.p. a sampled vertex lies on any long cycle, and compute
//     (1+eps)-approximate k-source SSSP from the sample (Theorem 1.6.B /
//     package ksssp). Directed: the candidate min_{v != s} d(s,v) + d(v,s)
//     is a closed directed walk, hence always contains a directed cycle
//     (sound), and for s on a minimum weight cycle C it is at most
//     (1+eps) w(C). Undirected: candidates come from non-pred-tree edges,
//     d(s,x) + w(x,y) + d(s,y) over edges (x,y) with pred-edge exclusion,
//     which for s on C is at most (1+eps) w(C) for some edge of C.
//
//   - Short cycles (< h hops): the scaling technique of [41]. For each
//     level i, edge weights are scaled to ceil(2hw/(eps 2^i)) and the
//     h* = (1+2/eps)h hop-limited *unweighted* approximation runs on the
//     stretched scaled graph (girth's Corollary 4.1 variant for
//     undirected; Algorithm 2/3's hop-limited variant for directed, both
//     taking the stretched lengths as per-arc delays). Some level
//     i* = ceil(log2 w(C)) fits C within the hop budget with at most
//     (1+eps) relative error, so the minimum over levels is a
//     2(1+eps) <= (2+eps')-approximation.
//
// The paper runs both passes over every scaling level. By default Run
// orders them so that the answer so far prunes the rest: short cycles
// first, levels ascending, stopping at the first level with
// 2^(i-1) >= U for the running minimum U; then long cycles, whose scaled
// SSSP skips the same levels (ksssp.Spec.Bound). The cut loses nothing:
// level i only guarantees cycles and paths of weight above 2^(i-1) >= U,
// and the level i* = ceil(log2 OPT) that guarantees the approximation has
// 2^(i*-1) < OPT <= U. U costs no rounds: every level ends in a
// convergecast that leaves its minimum at every node. Spec.PaperSchedule
// restores the paper's order and every level.
package wmwc

import (
	"fmt"
	"math"
	"strconv"

	"congestmwc/internal/congest"
	"congestmwc/internal/cyclewit"
	"congestmwc/internal/dirmwc"
	"congestmwc/internal/girth"
	"congestmwc/internal/graph"
	"congestmwc/internal/ksssp"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

const tagLongDist int64 = 301

// Spec configures one run.
type Spec struct {
	// Eps is the accuracy parameter of the (2+eps) guarantee (required,
	// > 0). Internally the scaling and SSSP subroutines run at eps/4.
	Eps float64
	// H is the long/short hop threshold; 0 selects ceil(n^{2/3}) for
	// undirected and ceil(n^{3/5}) for directed graphs.
	H int
	// SampleFactor tunes sampling constants (default 3).
	SampleFactor float64
	// Salt separates shared-randomness samples.
	Salt int64
	// PaperSchedule runs the paper's literal schedule: long cycles first,
	// then every short-cycle scaling level, with no level skipped, and
	// every phase of each level's girth/dirmwc run (their
	// Spec.PaperSchedule). The default adaptive schedule returns the same
	// guarantee in fewer rounds; the Table 1 harness sets this flag to
	// reproduce the paper's round counts.
	PaperSchedule bool
}

// Result is the outcome of a run.
type Result struct {
	// Weight is the weight of the lightest cycle found; valid when Found.
	Weight int64
	// Found reports whether a cycle was found.
	Found bool
	// Cycle is a witness when one could be materialised: a simple cycle of
	// the input graph whose (original-weight) total is at most Weight. Nil
	// when !Found or when reconstruction was degenerate.
	Cycle []int
	// LongWeight and ShortWeight break the result down by subroutine
	// (instrumentation; seq.Inf when the subroutine found nothing). Under
	// the adaptive schedule the long pass only seeks candidates below
	// ShortWeight, so LongWeight is exact only when it is below ShortWeight.
	LongWeight, ShortWeight int64
	// Rounds consumed by this run.
	Rounds int
}

// Run executes the (2+eps)-approximation on a weighted network.
func Run(net *congest.Network, spec Spec) (*Result, error) {
	g := net.Graph()
	if !g.Weighted() {
		return nil, fmt.Errorf("wmwc: graph must be weighted (use girth/dirmwc for unweighted graphs)")
	}
	if spec.Eps <= 0 {
		return nil, fmt.Errorf("wmwc: eps must be positive, got %v", spec.Eps)
	}
	for _, e := range g.Edges() {
		if e.Weight < 1 {
			return nil, fmt.Errorf("wmwc: edge (%d,%d) has weight %d; weights must be >= 1",
				e.From, e.To, e.Weight)
		}
	}
	n := g.N()
	h := spec.H
	if h <= 0 {
		exp := 2.0 / 3.0
		if g.Directed() {
			exp = 0.6
		}
		h = int(math.Ceil(math.Pow(float64(n), exp)))
	}
	factor := spec.SampleFactor
	if factor <= 0 {
		factor = 3
	}
	subEps := spec.Eps / 4
	startRounds := net.Stats().Rounds

	var long, short int64
	var longCyc, shortCyc []int
	longPass := func(bound int64) (err error) {
		net.BeginPhase("wmwc:long-cycles")
		long, longCyc, err = longCycles(net, spec, h, factor, subEps, bound)
		net.EndPhase()
		if err != nil {
			return fmt.Errorf("wmwc: long cycles: %w", err)
		}
		return nil
	}
	shortPass := func() (err error) {
		net.BeginPhase("wmwc:short-cycles")
		short, shortCyc, err = shortCycles(net, spec, h, factor, subEps, nil)
		net.EndPhase()
		if err != nil {
			return fmt.Errorf("wmwc: short cycles: %w", err)
		}
		return nil
	}
	if spec.PaperSchedule {
		if err := longPass(0); err != nil {
			return nil, err
		}
		if err := shortPass(); err != nil {
			return nil, err
		}
	} else {
		if err := shortPass(); err != nil {
			return nil, err
		}
		// Only long candidates below U can improve the answer.
		var bound int64
		if short < seq.Inf {
			bound = short
		}
		if err := longPass(bound); err != nil {
			return nil, err
		}
	}
	weight, cycle := long, longCyc
	if short < weight {
		weight, cycle = short, shortCyc
	}
	if cycle != nil {
		if _, err := seq.VerifyCycle(g, cycle); err != nil {
			cycle = nil
		}
	}
	return &Result{
		Weight:      weight,
		Found:       weight < seq.Inf,
		Cycle:       cycle,
		LongWeight:  long,
		ShortWeight: short,
		Rounds:      net.Stats().Rounds - startRounds,
	}, nil
}

// longCycles handles cycles of >= h hops via sampling plus k-source
// (1+eps)-approximate SSSP, returning the global minimum candidate and a
// witness cycle when the predecessor chains allow one. With bound > 0 only
// candidates below bound are sought (ksssp.Spec.Bound): the minimum is
// exact when below bound and seq.Inf or at least bound otherwise.
func longCycles(net *congest.Network, spec Spec, h int, factor, subEps float64, bound int64) (int64, []int, error) {
	g := net.Graph()
	n := g.N()
	sample := proto.Sample(n, proto.SampleProb(n, h, factor), net.Options().Seed, 4000+spec.Salt)
	if len(sample) == 0 {
		sample = []int{0}
	}
	best := make([]int64, n)
	witJ := make([]int32, n) // winning sample index per node
	witY := make([]int32, n) // edge partner (undirected case)
	var fwRes, bwRes *proto.MultiBFSResult
	for i := range best {
		best[i] = seq.Inf
		witJ[i], witY[i] = -1, -1
	}
	if g.Directed() {
		fw, err := ksssp.Run(net, ksssp.Spec{
			Sources: sample, Eps: subEps, Dir: proto.Forward,
			SampleFactor: factor, Salt: 300 + spec.Salt, Bound: bound,
		})
		if err != nil {
			return 0, nil, err
		}
		bw, err := ksssp.Run(net, ksssp.Spec{
			Sources: sample, Eps: subEps, Dir: proto.Backward,
			SampleFactor: factor, Salt: 400 + spec.Salt, Bound: bound,
		})
		if err != nil {
			return 0, nil, err
		}
		fwRes = &proto.MultiBFSResult{Dist: fw.Dist, Pred: fw.Pred}
		bwRes = &proto.MultiBFSResult{Dist: bw.Dist, Pred: bw.Pred}
		for v := 0; v < n; v++ {
			for j, s := range sample {
				if v == s {
					continue
				}
				din, dout := fw.Dist[v][j], bw.Dist[v][j]
				if din >= seq.Inf || dout >= seq.Inf {
					continue
				}
				// Closed directed walk s -> v -> s: always contains a
				// directed cycle.
				if c := din + dout; c < best[v] {
					best[v] = c
					witJ[v] = int32(j)
				}
			}
		}
	} else {
		res, err := ksssp.Run(net, ksssp.Spec{
			Sources: sample, Eps: subEps, Dir: proto.Forward,
			SampleFactor: factor, Salt: 300 + spec.Salt, Bound: bound,
		})
		if err != nil {
			return 0, nil, err
		}
		fwRes = &proto.MultiBFSResult{Dist: res.Dist, Pred: res.Pred}
		// Neighbours exchange their sample-distance vectors with final-edge
		// predecessors, then close cycles over non-pred-tree edges.
		recv, err := proto.ExchangeDistPred(net, fwRes, tagLongDist, nil)
		if err != nil {
			return 0, nil, err
		}
		proto.NonTreeScan{Res: fwRes, Recv: recv}.Scan(g, best, func(x, y, j int) {
			witJ[x] = int32(j)
			witY[x] = int32(y)
		})
	}
	tree, err := proto.BuildTree(net, 0)
	if err != nil {
		return 0, nil, err
	}
	minW, err := proto.ConvergecastMin(net, tree, best)
	if err != nil {
		return 0, nil, err
	}
	var cycle []int
	if minW < seq.Inf {
		for v := 0; v < n; v++ {
			if best[v] != minW || witJ[v] < 0 {
				continue
			}
			j := int(witJ[v])
			if g.Directed() {
				cycle = directedWalkCycle(fwRes, bwRes, j, sample[j], v)
			} else {
				cycle = cyclewit.FromTreePaths(fwRes, j, sample[j], v, int(witY[v]), -1)
			}
			break
		}
	}
	return minW, cycle, nil
}

// directedWalkCycle builds the closed walk s -> v (forward tree) followed
// by v -> s (backward tree, whose predecessors point at the next hop toward
// s) and extracts a simple directed cycle from it. Composed approximate
// paths may be broken at skeleton joins (PredUnknown); that simply yields
// no witness.
func directedWalkCycle(fw, bw *proto.MultiBFSResult, j, s, v int) []int {
	fwd := cyclewit.PredPath(fw, j, s, v) // s ... v
	if fwd == nil {
		return nil
	}
	back := cyclewit.Chain(len(bw.Pred), func(x int) int {
		p := bw.Pred[x][j]
		if p < 0 {
			return -1
		}
		return int(p)
	}, s, v) // returned as s ... v but traversed v -> s
	if back == nil {
		return nil
	}
	walk := append([]int(nil), fwd...)
	// Append the v -> s interior (exclusive of both endpoints) in traversal
	// order.
	for i := len(back) - 2; i >= 1; i-- {
		walk = append(walk, back[i])
	}
	return cyclewit.SimpleFromClosedWalk(walk)
}

// shortCycles handles cycles of < h hops via scaling and the hop-limited
// unweighted approximations, returning the global minimum candidate
// (already unscaled) and the winning level's witness cycle (in the original
// graph's topology) when one materialised. Levels run in ascending order;
// unless spec.PaperSchedule is set they stop at the first level that
// cannot beat the running minimum. Every node knows that minimum without
// extra rounds: each level's girth/dirmwc run ends in a convergecast that
// leaves the level's minimum at every node. onLevel, when non-nil, sees
// each level run and its unscaled estimate (seq.Inf: no cycle found).
func shortCycles(net *congest.Network, spec Spec, h int, factor, subEps float64, onLevel func(level int, est int64)) (int64, []int, error) {
	g := net.Graph()
	sc, err := graph.NewScaling(h, subEps, g.MaxWeight())
	if err != nil {
		return 0, nil, err
	}
	hstar := int64(sc.HopBudget())
	best := seq.Inf
	var bestCycle []int
	for level := 1; level <= sc.Levels(); level++ {
		if !spec.PaperSchedule && level > sc.LevelsBelow(best) {
			break
		}
		level := level
		length := func(a graph.Arc) int64 { return sc.ScaleWeight(a.Weight, level) }
		var scaled int64
		var found bool
		var cycle []int
		net.BeginPhase("level-" + strconv.Itoa(level))
		if g.Directed() {
			res, err := dirmwc.Run(net, dirmwc.Spec{
				Bound: hstar, Length: length, SampleFactor: factor,
				Salt: spec.Salt + int64(level)*17, PaperSchedule: spec.PaperSchedule,
			})
			if err != nil {
				net.EndPhase()
				return 0, nil, fmt.Errorf("level %d: %w", level, err)
			}
			scaled, found, cycle = res.Weight, res.Found, res.Cycle
		} else {
			res, err := girth.Run(net, girth.Spec{
				Bound: hstar, Length: length, SampleFactor: factor,
				Salt: spec.Salt + int64(level)*17, PaperSchedule: spec.PaperSchedule,
			})
			if err != nil {
				net.EndPhase()
				return 0, nil, fmt.Errorf("level %d: %w", level, err)
			}
			scaled, found, cycle = res.Weight, res.Found, res.Cycle
		}
		net.EndPhase()
		est := seq.Inf
		if found {
			est = int64(math.Ceil(sc.Unscale(scaled, level)))
		}
		if onLevel != nil {
			onLevel(level, est)
		}
		if est < best {
			best = est
			bestCycle = cycle
		}
	}
	return best, bestCycle, nil
}
