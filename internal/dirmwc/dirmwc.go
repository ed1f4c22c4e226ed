// Package dirmwc implements Section 3 of the paper: a 2-approximation of
// directed unweighted MWC in O~(n^{4/5} + D) rounds (Algorithms 2 and 3),
// plus the hop-limited variant used on stretched scaled graphs by the
// directed weighted algorithm of Section 5.2.
//
// Algorithm 2 (long cycles, >= h = n^{3/5} hops):
//
//  1. Sample S with probability Theta~(1/h); w.h.p. every cycle of >= h
//     hops contains a sampled vertex.
//  2. Compute d(s,v) and d(v,s) for every s in S and v in V with the
//     multi-source BFS of Theorem 1.6.A (Algorithm 1 / package ksssp in the
//     unbounded case, plain bounded multi-source BFS in the hop-limited
//     case, where bounded distances suffice).
//  3. Every v updates mu_v with w(v,s) + d(s,v) over its out-arcs into S:
//     exact MWC weight whenever a minimum weight cycle meets S.
//  4. Broadcast the S x S distance matrix (<= |S|^2 values).
//
// Algorithm 3 (short cycles avoiding S):
//
//  5. Each v locally builds R(v) (<= log n sampled vertices) by the halving
//     construction of lines 3-8, using only broadcast S x S distances and
//     its own d(v,s), d(s,v) vectors. R(v) defines the neighbourhood P(v)
//     of Definition 3.1, which w.h.p. has size O~(n/|S|) and, by Fact 1,
//     contains a 2-approximate witness cycle for any short MWC through v
//     avoiding S.
//  6. Neighbours exchange their d(.,s) vectors (O(|S|) rounds) so that the
//     P(v)-membership test of line 22 is local to the forwarding vertex.
//  7. Restricted BFS from every vertex v, delayed by a random offset
//     delta_v in [1, rho = n^{4/5}]: BFS messages carry Q(v) = (R(v),
//     {d(v,t)}) of O(log n) words (the transport charges the O(log n)
//     rounds per hop automatically) and are forwarded only to neighbours
//     passing the membership test. A vertex receiving more than
//     Theta(log n) new sources in one round is a phase-overflow vertex: it
//     sets Z(v)=1 and terminates (Lemma 3.3 bounds |Z| by O~(n^{4/5})).
//  8. Broadcast Z and run an h-hop BFS from Z (O(|Z| + h)); cycles through
//     overflow vertices are recorded exactly.
//  9. Every z closes cycles locally: mu_z = min over heard sources v with
//     an arc (z,v) of d(v,z) + w(z,v); convergecast the global minimum.
//
// At small n the sampling probability saturates and S = V. Every cycle
// then meets S, so step 3 alone is exact at every vertex: by default Run
// computes step 2 with one plain BFS per direction and skips steps 4-8
// (Spec.PaperSchedule runs them all).
package dirmwc

import (
	"fmt"
	"math"

	"congestmwc/internal/congest"
	"congestmwc/internal/cyclewit"
	"congestmwc/internal/graph"
	"congestmwc/internal/ksssp"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

// Spec configures one run.
type Spec struct {
	// H is the short-cycle hop bound (0 selects ceil(n^{3/5})).
	H int
	// Rho is the random-delay range of the restricted BFS (0 selects
	// ceil(n^{4/5})).
	Rho int
	// Cap is the per-round message cap that defines phase-overflow
	// vertices (0 selects 4*ceil(log2 n)).
	Cap int
	// SampleFactor tunes the sampling constant (default 3).
	SampleFactor float64
	// Bound, when positive, restricts the computation to cycles of weight
	// at most Bound — the hop-limited variant for Section 5.2. Requires
	// Length when the graph is weighted.
	Bound int64
	// Length gives per-arc lengths for the stretched-graph simulation
	// (nil = unit lengths; required for weighted graphs).
	Length func(a graph.Arc) int64
	// Salt separates this phase's shared-randomness sample.
	Salt int64
	// PaperSchedule runs every phase of Algorithms 2 and 3 even when the
	// sample S is all of V, where the default skips the phases that cannot
	// lower the answer (see Run). The Table 1 harness sets it to reproduce
	// the paper's round counts.
	PaperSchedule bool
}

// dwit records which computation produced a node's best candidate so the
// witness cycle can be reconstructed afterwards.
type dwit struct {
	kind dwitKind
	src  int32 // sample index / source vertex / overflow index, per kind
}

type dwitKind int8

const (
	witNone dwitKind = iota
	witSampled
	witRBFS
	witOverflow
)

// Result is the outcome of a run.
type Result struct {
	// Weight is the weight of the lightest directed cycle found; valid
	// when Found.
	Weight int64
	// Found reports whether a cycle was found (within Bound, if set).
	Found bool
	// Cycle is a witness when one could be materialised from predecessor
	// pointers: a simple directed cycle (closing arc implicit) whose
	// weight, in the run's length metric, is at most Weight. Nil when
	// !Found or when reconstruction was degenerate.
	Cycle []int
	// Overflow is the number of phase-overflow vertices of the restricted
	// BFS (instrumentation for Lemma 3.3); 0 when Algorithm 3 is skipped
	// because S = V.
	Overflow int
	// Rounds consumed by this run.
	Rounds int
}

// Run executes the 2-approximation on a directed network.
func Run(net *congest.Network, spec Spec) (*Result, error) {
	g := net.Graph()
	if !g.Directed() {
		return nil, fmt.Errorf("dirmwc: graph must be directed")
	}
	if g.Weighted() && g.MaxWeight() > 1 && spec.Length == nil {
		return nil, fmt.Errorf("dirmwc: weighted graph needs Length (stretched simulation)")
	}
	n := g.N()
	h := spec.H
	if h <= 0 {
		h = int(math.Ceil(math.Pow(float64(n), 0.6)))
	}
	rho := spec.Rho
	if rho <= 0 {
		rho = int(math.Ceil(math.Pow(float64(n), 0.8)))
	}
	capLog := spec.Cap
	if capLog <= 0 {
		capLog = 4 * int(math.Ceil(math.Log2(float64(n)+2)))
	}
	factor := spec.SampleFactor
	if factor <= 0 {
		factor = 3
	}
	length := spec.Length
	if length == nil {
		length = func(graph.Arc) int64 { return 1 }
	}
	// hShort is the weight bound for "short" cycles handled by the
	// restricted BFS; distBound caps the sampled-distance computations
	// (2*hShort suffices for every Fact-1 witness cycle).
	hShort := int64(h)
	if spec.Bound > 0 {
		hShort = spec.Bound
	}
	distBound := 2 * hShort

	startRounds := net.Stats().Rounds
	mu := make([]int64, n)
	wit := make([]dwit, n)
	for i := range mu {
		mu[i] = seq.Inf
	}

	// --- Lines 1-2: sample S. ---
	sampleH := h
	if spec.Bound > 0 {
		// In hop-limited mode "long" cycles are those of weight >= Bound;
		// they are handled by the caller (Section 5.2 samples separately),
		// but sampling at the same rate keeps P(v) small.
		sampleH = int(hShort)
		if sampleH > n {
			sampleH = n
		}
	}
	s := proto.Sample(n, proto.SampleProb(n, sampleH, factor), net.Options().Seed, 3000+spec.Salt)
	if len(s) == 0 {
		s = []int{0}
	}

	// S = V is global knowledge (shared randomness), so testing it costs
	// no rounds. Every cycle then meets S and line 4 alone sets each mu_v
	// to the lightest cycle through v; the S x S broadcast and Algorithm 3
	// could only offer candidates no lighter, so they are skipped.
	saturated := len(s) == n && !spec.PaperSchedule

	// --- Line 3: distances between S and all vertices, both directions. ---
	net.BeginPhase("dirmwc:sample-dist")
	distF, distB, predF, err := sampleDistances(net, spec, s, distBound, length, saturated)
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("dirmwc: %w", err)
	}

	// --- Line 4: cycles through sampled vertices. ---
	sIdx := make([]int, n)
	for v := range sIdx {
		sIdx[v] = -1
	}
	for j, sv := range s {
		sIdx[sv] = j
	}
	field := func(v int) int { return sIdx[v] }
	proto.ClosingArcScan{Dist: distF, Field: field, Length: length}.Scan(g, mu, func(v, _, j int) {
		wit[v] = dwit{kind: witSampled, src: int32(j)}
	})

	// --- Line 5 and Algorithm 3: cycles avoiding S. ---
	var tree *proto.Tree
	overflow := 0
	var shortWits *shortWitnesses
	if !saturated {
		tree, overflow, shortWits, err = avoidingSample(net, shortSpec{
			s: s, distF: distF, distB: distB, mu: mu, wit: wit,
			hShort: hShort, distBound: distBound, rho: rho, cap: capLog,
			length: length, salt: spec.Salt,
		})
		if err != nil {
			return nil, fmt.Errorf("dirmwc: %w", err)
		}
	}

	if spec.Bound > 0 {
		for i := range mu {
			if mu[i] > spec.Bound {
				mu[i] = seq.Inf
			}
		}
	}
	net.BeginPhase("dirmwc:convergecast")
	if tree == nil {
		// The skipped S x S broadcast would have built the tree.
		tree, err = proto.BuildTree(net, 0)
	}
	var minW int64
	if err == nil {
		minW, err = proto.ConvergecastMin(net, tree, mu)
	}
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("dirmwc: %w", err)
	}
	out := &Result{
		Weight:   minW,
		Found:    minW < seq.Inf,
		Overflow: overflow,
		Rounds:   net.Stats().Rounds - startRounds,
	}
	if out.Found {
		for v := 0; v < n; v++ {
			if mu[v] != minW {
				continue
			}
			var cycle []int
			switch wit[v].kind {
			case witSampled:
				// Tree path S[j] ... v plus the closing arc (v, S[j]).
				if predF != nil {
					j := int(wit[v].src)
					cycle = cyclewit.PredPath(predF, j, s[j], v)
				}
			case witRBFS:
				cycle = shortWits.rbfsCycle(int(wit[v].src), v)
			case witOverflow:
				cycle = shortWits.overflowCycle(int(wit[v].src), v)
			}
			if cycle != nil {
				if _, err := seq.VerifyCycle(g, cycle); err == nil {
					out.Cycle = cycle
				}
			}
			break
		}
	}
	return out, nil
}

// avoidingSample runs the phases that catch cycles avoiding S: the S x S
// broadcast of line 5 (fills sp.dSS) and Algorithm 3. It updates sp.mu and
// sp.wit in place and returns the BFS tree the broadcast built, the number
// of phase-overflow vertices and the witness builder for Algorithm 3's
// candidates.
func avoidingSample(net *congest.Network, sp shortSpec) (*proto.Tree, int, *shortWitnesses, error) {
	n := net.Graph().N()
	s := sp.s
	net.BeginPhase("dirmwc:sxs-broadcast")
	tree, err := proto.BuildTree(net, 0)
	if err != nil {
		net.EndPhase()
		return nil, 0, nil, err
	}
	values := make([][][]int64, n)
	for j, t := range s {
		for i := range s {
			if d := sp.distF[t][i]; d < seq.Inf {
				// d(S[i] -> S[j]).
				values[t] = append(values[t], []int64{int64(i), int64(j), d})
			}
		}
	}
	recs, err := proto.Broadcast(net, tree, values)
	net.EndPhase()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("broadcast S x S: %w", err)
	}
	sp.dSS = make([][]int64, len(s))
	for i := range sp.dSS {
		sp.dSS[i] = make([]int64, len(s))
		for j := range sp.dSS[i] {
			if i != j {
				sp.dSS[i][j] = seq.Inf
			}
		}
	}
	for _, rec := range recs[0] {
		i, j, d := int(rec[0]), int(rec[1]), rec[2]
		if d < sp.dSS[i][j] {
			sp.dSS[i][j] = d
		}
	}

	net.BeginPhase("dirmwc:short-cycles")
	overflow, wits, err := shortCycles(net, sp)
	net.EndPhase()
	if err != nil {
		return nil, 0, nil, err
	}
	return tree, overflow, wits, nil
}

// sampleDistances computes d(s,v) (distF[v][j]) and d(v,s) (distB[v][j])
// for all v and s = S[j]. The unbounded case uses Algorithm 1 (Theorem
// 1.6.A); the bounded case a plain pipelined multi-source BFS, which is
// already within the round budget for bounded distances. A saturated
// unbounded run (S = V) uses an unbounded plain BFS: Algorithm 1 with k = n
// sources has h = n, so its step-5 BFS is already exact and its combination
// step never replaces it, giving the same distances and predecessors. A
// saturated run skips the backward BFS and returns a nil distB: only
// Algorithm 3 reads it, and Run skips Algorithm 3 then.
func sampleDistances(net *congest.Network, spec Spec, s []int, bound int64, length func(graph.Arc) int64, saturated bool) (distF, distB [][]int64, predF *proto.MultiBFSResult, err error) {
	unbounded := spec.Bound <= 0 && spec.Length == nil
	if unbounded && !saturated {
		fw, err := ksssp.Run(net, ksssp.Spec{
			Sources: s, Dir: proto.Forward, SampleFactor: spec.SampleFactor, Salt: 100 + spec.Salt,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		bw, err := ksssp.Run(net, ksssp.Spec{
			Sources: s, Dir: proto.Backward, SampleFactor: spec.SampleFactor, Salt: 200 + spec.Salt,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		// Wrap the ksssp result (distances + final-edge predecessors) so the
		// witness builder can follow its chains; PredUnknown gaps surface as
		// broken chains and simply yield no witness.
		return fw.Dist, bw.Dist, &proto.MultiBFSResult{Dist: fw.Dist, Pred: fw.Pred}, nil
	}
	bfs := proto.MultiBFSSpec{Sources: s}
	if !unbounded {
		bfs.Bound, bfs.Length, bfs.Stretch = bound, length, true
	}
	bfs.Dir = proto.Forward
	fw, err := proto.RunMultiBFS(net, bfs)
	if err != nil {
		return nil, nil, nil, err
	}
	if saturated {
		return fw.Dist, nil, fw, nil
	}
	bfs.Dir = proto.Backward
	bw, err := proto.RunMultiBFS(net, bfs)
	if err != nil {
		return nil, nil, nil, err
	}
	return fw.Dist, bw.Dist, fw, nil
}
