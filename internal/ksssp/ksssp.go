// Package ksssp implements Section 2 of the paper: multi-source BFS and
// approximate SSSP from k sources.
//
// For k >= n^(1/3) sources, Algorithm 1 computes exact directed BFS in
// O~(sqrt(nk) + D) rounds via a sampled skeleton graph:
//
//  1. sample S with probability Theta(log n / h), h = sqrt(nk);
//  2. h-hop BFS from every s in S (pipelined multi-source BFS, O(|S|+h));
//  3. build the skeleton graph on S (edge (s,t) iff an h-hop path s->t,
//     weighted by the h-hop distance) and broadcast its <= |S|^2 edges;
//  4. every node locally computes APSP on the skeleton;
//  5. h-hop BFS from the k sources (O(k+h)); sampled vertices reached
//     broadcast the <= k|S| distances d(u,s);
//  6. every node v locally combines: d(u,v) = min( d_h(u,v),
//     min_{s in S} [ min_t ( d_h(u,t) + skel(t,s) ) + d_h(s,v) ] ).
//
// Step 6 replaces the paper's lines 8-10 (propagating d(u,s) down the h-hop
// BFS trees of the sampled vertices): after the line-5/7 broadcasts, every
// vertex already holds all terms of the combination locally — v knows
// d_h(s,v) from step 2's BFS — so no further communication is required.
// The round complexity is dominated by the same terms either way.
//
// The weighted variant replaces each h-hop BFS with the (1+eps)-approximate
// h-hop SSSP of internal/proto (scaling per Section 5), giving
// (1+eps)-approximate k-source SSSP in O~(sqrt(nk) + D) rounds.
//
// For k < n^(1/3) the same algorithm with h = sqrt(nk) yields the
// O~(n/k + D) bound of Theorem 1.6.A (the |S|^2 = (n/h)^2 broadcast term
// dominates); the k*SSSP alternative of Theorem 1.6.A is the one-source-at-
// a-time loop exposed as RunSequential.
package ksssp

import (
	"fmt"
	"math"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

// PredUnknown marks a Result.Pred entry whose realized path does not end
// with a concrete edge known to the algorithm (see Result.Pred).
const PredUnknown = proto.PredUnknown

// Spec configures a k-source computation.
type Spec struct {
	// Sources are the k source vertices (global knowledge).
	Sources []int
	// H is the hop parameter; 0 selects sqrt(n*k) per Theorem 1.6.
	H int
	// Eps > 0 selects the weighted (1+eps)-approximate variant; it must be
	// 0 for unweighted graphs (which are computed exactly).
	Eps float64
	// SampleFactor tunes the Theta(log n / h) sampling constant (default 3).
	SampleFactor float64
	// Dir is the traversal direction (default Forward: d(source -> v)).
	Dir proto.Direction
	// Salt separates the shared-randomness sample from other phases run on
	// the same network seed.
	Salt int64
	// Bound, when > 0, asks only for distances below it: every Dist entry
	// below Bound is exactly the unbounded run's and every other entry is
	// seq.Inf. The weighted engine skips the scaling levels that cannot
	// produce an estimate below Bound, and Run's broadcasts carry only
	// distances below it. A caller that already holds a candidate of
	// weight U passes U.
	Bound int64
}

// Result holds the computed distances.
type Result struct {
	// Dist[v][i] is (an approximation of) d(Sources[i], v), seq.Inf when
	// unreachable. For Dir == Backward it is d(v, Sources[i]).
	Dist [][]int64
	// Pred[v][i] is the final edge of the realized path for Dist[v][i]:
	// the neighbour preceding v. It is -1 at the source itself and
	// PredUnknown when the path's final segment degenerates at a sampled
	// vertex (the combination then ends inside the skeleton). Predecessors
	// are used by cycle-candidate computations to exclude degenerate
	// closed walks.
	Pred [][]int32
	// Sampled is the skeleton sample S used.
	Sampled []int
	// SampleDist[v][j] is the h-hop-bounded distance d(Sampled[j], v)
	// (same direction convention as Dist), a by-product reused by the MWC
	// algorithms.
	SampleDist [][]int64
	// SkelDist[j][l] is the skeleton-graph APSP distance from Sampled[j]
	// to Sampled[l] (unbounded hops), also reused by MWC algorithms.
	SkelDist [][]int64
	// Rounds consumed.
	Rounds int
}

// Run executes Algorithm 1 (or its weighted variant) on the network.
func Run(net *congest.Network, spec Spec) (*Result, error) {
	g := net.Graph()
	if err := spec.validate(g); err != nil {
		return nil, err
	}
	n := g.N()
	k := len(spec.Sources)
	h := spec.H
	if h <= 0 {
		h = int(math.Ceil(math.Sqrt(float64(n) * float64(k))))
	}
	factor := spec.SampleFactor
	if factor <= 0 {
		factor = 3
	}
	dir := spec.Dir
	if dir == 0 {
		dir = proto.Forward
	}
	startRounds := net.Stats().Rounds

	// Step 1: shared-randomness sample.
	sampled := proto.Sample(n, proto.SampleProb(n, h, factor), net.Options().Seed, 1000+spec.Salt)
	if len(sampled) == 0 {
		sampled = []int{0}
	}

	// Step 2: h-hop multi-source distances from S.
	net.BeginPhase("ksssp:sample-bfs")
	sampleRes, err := proto.HopDist(net, spec.hopDist(sampled, h, dir))
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("ksssp: sample BFS: %w", err)
	}

	// Step 3: broadcast skeleton edges. The h-hop distance d(s,t) is held
	// at t (for Forward; at t as well for Backward with the reversed
	// meaning), so each sampled vertex t contributes records
	// (sIdx, tIdx, d).
	net.BeginPhase("ksssp:skeleton-broadcast")
	tree, err := proto.BuildTree(net, 0)
	if err != nil {
		net.EndPhase()
		return nil, fmt.Errorf("ksssp: %w", err)
	}
	sampleIdx := make(map[int]int, len(sampled))
	for j, s := range sampled {
		sampleIdx[s] = j
	}
	values := make([][][]int64, n)
	for j, t := range sampled {
		for i := range sampled {
			if d := sampleRes.Dist[t][i]; d < seq.Inf {
				values[t] = append(values[t], []int64{int64(i), int64(j), d})
			}
		}
	}
	skelEdges, err := proto.Broadcast(net, tree, values)
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("ksssp: skeleton broadcast: %w", err)
	}

	// Step 4: local skeleton APSP (identical at every node; we compute it
	// once — zero rounds either way).
	skel := skeletonAPSP(len(sampled), skelEdges[0])

	// Step 5: h-hop distances from the k sources.
	net.BeginPhase("ksssp:source-bfs")
	srcRes, err := proto.HopDist(net, spec.hopDist(spec.Sources, h, dir))
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("ksssp: source BFS: %w", err)
	}
	// Sampled vertices broadcast d(u, s) for sources u that reached them.
	values = make([][][]int64, n)
	for j, s := range sampled {
		for i := range spec.Sources {
			if d := srcRes.Dist[s][i]; d < seq.Inf {
				values[s] = append(values[s], []int64{int64(i), int64(j), d})
			}
		}
	}
	net.BeginPhase("ksssp:source-broadcast")
	srcToSample, err := proto.Broadcast(net, tree, values)
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("ksssp: source-sample broadcast: %w", err)
	}

	// Step 6: local combination at every node. All nodes know
	// dUS[u][t] (broadcast), skel[t][s] (local APSP on broadcast edges) and
	// their own d(s, v) (step 2). We first compute d*(u,s) =
	// min_t dUS[u][t] + skel[t][s], shared by all nodes.
	dUS := make([][]int64, k)
	for i := range dUS {
		dUS[i] = make([]int64, len(sampled))
		for j := range dUS[i] {
			dUS[i][j] = seq.Inf
		}
	}
	for _, rec := range srcToSample[0] {
		u, j, d := int(rec[0]), int(rec[1]), rec[2]
		if d < dUS[u][j] {
			dUS[u][j] = d
		}
	}
	dStar := make([][]int64, k)
	for u := 0; u < k; u++ {
		dStar[u] = make([]int64, len(sampled))
		for s := range sampled {
			best := seq.Inf
			for t := range sampled {
				if dUS[u][t] >= seq.Inf || skel[t][s] >= seq.Inf {
					continue
				}
				if c := dUS[u][t] + skel[t][s]; c < best {
					best = c
				}
			}
			dStar[u][s] = best
		}
	}
	dist := make([][]int64, n)
	pred := make([][]int32, n)
	for v := 0; v < n; v++ {
		row := make([]int64, k)
		prow := make([]int32, k)
		for u := 0; u < k; u++ {
			best := srcRes.Dist[v][u]
			bestPred := srcRes.Pred[v][u]
			for s := range sampled {
				if dStar[u][s] >= seq.Inf || sampleRes.Dist[v][s] >= seq.Inf {
					continue
				}
				if c := dStar[u][s] + sampleRes.Dist[v][s]; c < best {
					best = c
					bestPred = sampleRes.Pred[v][s]
					if bestPred == -1 && sampled[s] == v {
						// The realized path ends inside the skeleton.
						bestPred = PredUnknown
					}
				}
			}
			if spec.Bound > 0 && best >= spec.Bound {
				best, bestPred = seq.Inf, -1
			}
			row[u] = best
			prow[u] = bestPred
		}
		dist[v] = row
		pred[v] = prow
	}
	return &Result{
		Dist:       dist,
		Pred:       pred,
		Sampled:    sampled,
		SampleDist: sampleRes.Dist,
		SkelDist:   skel,
		Rounds:     net.Stats().Rounds - startRounds,
	}, nil
}

// validate rejects a spec no engine serves: Eps > 0 asks for the scaled
// engine, which needs weights, and Eps == 0 asks for hop-bounded BFS, which
// needs unit weights.
func (spec Spec) validate(g *graph.Graph) error {
	switch {
	case len(spec.Sources) == 0:
		return fmt.Errorf("ksssp: no sources")
	case spec.Eps > 0 && !g.Weighted():
		return fmt.Errorf("ksssp: eps set for unweighted graph")
	case spec.Eps == 0 && !proto.UnitWeights(g):
		return fmt.Errorf("ksssp: weighted graph needs eps > 0")
	}
	return nil
}

// hopDist describes one h-hop distance step from the given sources.
func (spec Spec) hopDist(sources []int, h int, dir proto.Direction) proto.HopDistSpec {
	return proto.HopDistSpec{Sources: sources, H: h, Bound: spec.Bound, Eps: spec.Eps, Dir: dir}
}

// skeletonAPSP runs Floyd-Warshall on the broadcast skeleton edges
// (records (sIdx, tIdx, d) meaning d(S[sIdx] -> S[tIdx]) = d).
func skeletonAPSP(m int, records [][]int64) [][]int64 {
	dist := make([][]int64, m)
	for i := range dist {
		dist[i] = make([]int64, m)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = seq.Inf
			}
		}
	}
	for _, rec := range records {
		s, t, d := int(rec[0]), int(rec[1]), rec[2]
		if d < dist[s][t] {
			dist[s][t] = d
		}
	}
	for mid := 0; mid < m; mid++ {
		for i := 0; i < m; i++ {
			if dist[i][mid] >= seq.Inf {
				continue
			}
			for j := 0; j < m; j++ {
				if dist[mid][j] >= seq.Inf {
					continue
				}
				if c := dist[i][mid] + dist[mid][j]; c < dist[i][j] {
					dist[i][j] = c
				}
			}
		}
	}
	return dist
}

// Auto picks the Theorem 1.6.A regime: for k >= n^{1/3} sources it runs
// Algorithm 1 (O~(sqrt(nk) + D)); for fewer sources it compares the
// O~(n/k + D) skeleton bound against the k * SSSP cost of one pipelined
// SSSP per source and picks the smaller estimate, mirroring the min(...)
// of equation (1).
func Auto(net *congest.Network, spec Spec) (*Result, error) {
	if err := spec.validate(net.Graph()); err != nil {
		return nil, err
	}
	n := net.Graph().N()
	k := len(spec.Sources)
	if float64(k) >= math.Cbrt(float64(n)) {
		return Run(net, spec)
	}
	// Estimated costs, up to shared polylog factors: the generalised
	// Algorithm 1 with h = sqrt(nk) costs ~ n/k + D (the |S|^2 broadcast
	// dominates); repeating SSSP costs ~ k * (sqrt(n) + D). D is bounded
	// by the tree height, cheap to obtain.
	tree, err := proto.BuildTree(net, 0)
	if err != nil {
		return nil, fmt.Errorf("ksssp: %w", err)
	}
	d := float64(tree.Height)
	skeleton := float64(n)/float64(k) + d
	repeated := float64(k) * (math.Sqrt(float64(n)) + d)
	if skeleton <= repeated {
		return Run(net, spec)
	}
	return RunSequential(net, spec)
}

// RunSequential computes k-source distances by running one full (non-hop-
// bounded) SSSP per source in sequence — the k*SSSP alternative of Theorem
// 1.6.A for small k, and a baseline for the benchmarks.
func RunSequential(net *congest.Network, spec Spec) (*Result, error) {
	g := net.Graph()
	if err := spec.validate(g); err != nil {
		return nil, err
	}
	n := g.N()
	dir := spec.Dir
	if dir == 0 {
		dir = proto.Forward
	}
	startRounds := net.Stats().Rounds
	dist := make([][]int64, n)
	pred := make([][]int32, n)
	for v := range dist {
		dist[v] = make([]int64, len(spec.Sources))
		pred[v] = make([]int32, len(spec.Sources))
	}
	net.BeginPhase("ksssp:sequential")
	defer net.EndPhase()
	for i, s := range spec.Sources {
		res, err := proto.HopDist(net, spec.hopDist([]int{s}, 0, dir))
		if err != nil {
			return nil, fmt.Errorf("ksssp: source %d: %w", s, err)
		}
		for v := 0; v < n; v++ {
			dist[v][i] = res.Dist[v][0]
			pred[v][i] = res.Pred[v][0]
		}
	}
	return &Result{Dist: dist, Pred: pred, Rounds: net.Stats().Rounds - startRounds}, nil
}
