package girth

import (
	"fmt"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

// RunPRT implements the comparison baseline of Table 1 in the spirit of
// Peleg-Roditty-Tal [44]: a (2 - 1/g)-style approximation of girth by
// guess-doubling sampled BFS, the algorithm Theorem 1.3.B (our Run)
// improves upon.
//
// Structure: guess the girth by doubling, g^ = 2, 4, 8, ...; for each
// guess, sample vertices densely enough that w.h.p. some sampled vertex
// lies on any cycle of weight <= g^ (probability ~ log n / g^, since such
// a cycle has >= g^ vertices), run a 2*g^-bounded BFS from the sample and
// collect the non-tree-edge cycle candidates; stop at the first guess that
// certifies a cycle of weight <= 2*g^.
//
// This simplified variant's coverage argument needs ~ n log n / g^ sources
// at guess g^, so its measured rounds on sparse instances scale
// near-linearly in n — whereas [44]'s sharper accounting achieves
// O~(sqrt(ng) + D). Either way it is the slower baseline that the
// O~(sqrt(n) + D) algorithm of Section 4 is measured against in
// EXPERIMENTS.md, and the measured gap (near-linear vs ~n^0.6) reproduces
// the paper's improvement claim.
//
// Like Run, the reported weight is the weight of a real closed walk
// containing a cycle (non-tree predecessor exclusion), so it never
// under-reports the girth.
func RunPRT(net *congest.Network, spec Spec) (*Result, error) {
	g := net.Graph()
	if g.Directed() {
		return nil, fmt.Errorf("girth: graph must be undirected")
	}
	n := g.N()
	factor := spec.SampleFactor
	if factor <= 0 {
		factor = 3
	}
	startRounds := net.Stats().Rounds
	tree, err := proto.BuildTree(net, 0)
	if err != nil {
		return nil, fmt.Errorf("girth: %w", err)
	}

	overallBest := seq.Inf
	var overallWit witnessInfo
	overallWit.z = -1
	haveWit := false
	for guess, round := int64(2), 0; guess < 4*int64(n); guess, round = guess*2, round+1 {
		// Sample density: a sampled vertex among any guess-sized vertex set
		// w.h.p.; probability factor*log(n)/guess.
		prob := proto.SampleProb(n, int(guess), factor)
		w := proto.Sample(n, prob, net.Options().Seed, 5000+spec.Salt+int64(round))
		if len(w) == 0 {
			w = []int{0}
		}
		resW, err := proto.RunMultiBFS(net, proto.MultiBFSSpec{
			Sources: w, Dir: proto.Undirected, Bound: 2 * guess,
		})
		if err != nil {
			return nil, fmt.Errorf("girth: guess %d BFS: %w", guess, err)
		}
		recvW, err := proto.ExchangeDistPred(net, resW, tagListEntry, nil)
		if err != nil {
			return nil, fmt.Errorf("girth: guess %d exchange: %w", guess, err)
		}
		best := make([]int64, n)
		wits := make([]witnessInfo, n)
		for i := range best {
			best[i] = seq.Inf
			wits[i].z = -1
		}
		proto.NonTreeScan{Res: resW, Recv: recvW, Length: unitLength}.Scan(g, best, func(x, y, wi int) {
			wits[x] = witnessInfo{res: resW, src: wi, srcV: w[wi], x: x, y: y, z: -1}
		})
		minW, err := proto.ConvergecastMin(net, tree, best)
		if err != nil {
			return nil, fmt.Errorf("girth: %w", err)
		}
		if minW < overallBest {
			overallBest = minW
			haveWit = false
			for v := 0; v < n; v++ {
				if best[v] == minW {
					overallWit = wits[v]
					haveWit = true
					break
				}
			}
		}
		// Stop once the guess certifies the answer: a girth of <= guess
		// would have been 2-approximated by this round's candidates, so a
		// candidate within 2*guess settles every smaller girth.
		if overallBest <= 2*guess {
			break
		}
	}
	out := &Result{
		Weight: overallBest,
		Found:  overallBest < seq.Inf,
		Rounds: net.Stats().Rounds - startRounds,
	}
	if out.Found && haveWit {
		out.Cycle = buildCycle(g, overallWit)
	}
	return out, nil
}

func unitLength(graph.Arc) int64 { return 1 }
