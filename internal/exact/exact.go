// Package exact implements the exact MWC baselines of Table 1: the
// O~(n)-round algorithms obtained by reducing MWC to all-pairs shortest
// paths ([8, 28, 37] in the paper; [3, 50] for the reductions).
//
// The APSP is one exact n-source proto.HopDist: priority-forwarding
// distributed Bellman-Ford on weighted graphs and, on unit weights, the
// classical pipelined n-source BFS of Holzer-Wattenhofer /
// Lenzen-Patt-Shamir with O(n + D) rounds.
//
// MWC extraction:
//
//   - Directed: mu_u = min over out-arcs (u,v) of w(u,v) + d(v,u); the
//     shortest v -> u path is simple and cannot use (u,v), so every
//     candidate is a simple cycle and the minimum over all arcs is exact.
//   - Undirected: mu_x = min over edges (x,y) and sources s of
//     d(s,x) + w(x,y) + d(s,y) restricted to non-tree edges of s's
//     shortest-path tree (predecessor exclusion). For a minimum weight
//     cycle C and s on C, every edge of C has candidate at most w(C) and
//     at least one edge of C is a non-tree edge, so the minimum is exact;
//     conversely every non-tree candidate contains a simple cycle (the two
//     tree paths diverge at their LCA and are vertex-disjoint below it).
//     Undirected girth (unweighted MWC) is the same computation. Each node
//     reads d(s,y) and y's predecessor from the neighbour rows the APSP
//     relaxation already delivered; Spec.PaperSchedule sends them in a
//     separate n-wide vector exchange instead, as the reductions describe.
package exact

import (
	"fmt"

	"congestmwc/internal/congest"
	"congestmwc/internal/cyclewit"
	"congestmwc/internal/graph"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

const tagVec int64 = 401

// Spec configures a run.
type Spec struct {
	// PaperSchedule runs the undirected extraction on a separate exchange
	// of every node's full distance vector, where the default takes the
	// neighbours' rows from the APSP run. The Table 1 harness and the
	// lower-bound meter set it to reproduce the baselines' round counts.
	PaperSchedule bool
}

// Result is the outcome of an exact MWC computation.
type Result struct {
	// Weight of the minimum weight cycle; valid when Found.
	Weight int64
	// Found reports whether the graph contains a cycle.
	Found bool
	// Cycle is a witness: the vertex sequence of a minimum weight cycle
	// (closing edge implicit), reconstructed from the per-node predecessor
	// pointers of the APSP trees — the distributed representation the
	// paper describes ("storing the next vertex on the cycle at each
	// vertex"). Nil when !Found.
	Cycle []int
	// Rounds consumed.
	Rounds int
}

// witnessInfo records where the best candidate was found so the cycle can
// be reconstructed from predecessor pointers afterwards.
type witnessInfo struct {
	at  int // node holding the candidate
	via int // other endpoint of the closing edge
	src int // tree source (undirected case; -1 for directed)
}

// MWC computes the exact minimum weight cycle via distributed APSP.
func MWC(net *congest.Network, spec Spec) (*Result, error) {
	g := net.Graph()
	n := g.N()
	startRounds := net.Stats().Rounds
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	dir := proto.Forward
	if !g.Directed() {
		dir = proto.Undirected
	}
	net.BeginPhase("exact:apsp")
	res, err := proto.HopDist(net, proto.HopDistSpec{Sources: all, Dir: dir, Rows: !g.Directed() && !spec.PaperSchedule})
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("exact: apsp: %w", err)
	}

	mu := make([]int64, n)
	for i := range mu {
		mu[i] = seq.Inf
	}
	witnesses := make([]witnessInfo, n)
	if g.Directed() {
		field := func(v int) int { return v }
		proto.ClosingArcScan{Dist: res.Dist, Field: field}.Scan(g, mu, func(u, v, _ int) {
			witnesses[u] = witnessInfo{at: u, via: v, src: -1}
		})
	} else {
		if spec.PaperSchedule {
			net.BeginPhase("exact:exchange")
			// Every entry is sent, Inf included: the full n-wide vector.
			res.Rows, err = proto.Exchange(net, proto.ExchangeSpec{
				Tag: tagVec, Fields: n,
				Value: func(v, s int) (proto.Pair, bool) {
					return proto.Pair{A: res.Dist[v][s], B: int64(res.Pred[v][s])}, true
				},
			})
			net.EndPhase()
			if err != nil {
				return nil, fmt.Errorf("exact: exchange: %w", err)
			}
		}
		proto.NonTreeScan{Res: res, Recv: res.Rows}.Scan(g, mu, func(x, y, s int) {
			witnesses[x] = witnessInfo{at: x, via: y, src: s}
		})
	}
	net.BeginPhase("exact:convergecast")
	tree, err := proto.BuildTree(net, 0)
	if err != nil {
		net.EndPhase()
		return nil, fmt.Errorf("exact: %w", err)
	}
	minW, err := proto.ConvergecastMin(net, tree, mu)
	net.EndPhase()
	if err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}
	out := &Result{
		Weight: minW,
		Found:  minW < seq.Inf,
		Rounds: net.Stats().Rounds - startRounds,
	}
	if out.Found {
		for v := 0; v < n; v++ {
			if mu[v] == minW {
				out.Cycle = buildWitness(g, res, witnesses[v])
				break
			}
		}
	}
	return out, nil
}

// buildWitness reconstructs the cycle from the predecessor pointers of the
// APSP result and validates it. The witness cycle's weight never exceeds
// the candidate that produced it (stripping the shared tree prefix can only
// shrink the cycle), and since the candidate is the exact minimum, the
// witness weight equals it.
func buildWitness(g *graph.Graph, res *proto.MultiBFSResult, w witnessInfo) []int {
	var cycle []int
	if w.src < 0 {
		// Directed: path via -> ... -> at in the tree rooted at via, then
		// the closing arc (at, via).
		cycle = cyclewit.PredPath(res, w.via, w.via, w.at)
	} else {
		cycle = cyclewit.FromTreePaths(res, w.src, w.src, w.at, w.via, -1)
	}
	if cycle == nil {
		return nil
	}
	if _, err := seq.VerifyCycle(g, cycle); err != nil {
		return nil
	}
	return cycle
}
