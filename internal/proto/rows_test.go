package proto

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

// rowsNet builds a network on the given engine and bandwidth.
func rowsNet(t *testing.T, g *graph.Graph, parallel bool, bandwidth int) *congest.Network {
	t.Helper()
	net, err := congest.NewNetwork(g, congest.Options{Seed: 7, Parallel: parallel, Workers: 2, Bandwidth: bandwidth})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// checkRows compares the rows a run delivered with the rows a separate
// exchange of the same run's results delivered. With cap < 0 every entry
// must be equal. Otherwise an entry may also be missing from the fused
// rows, but only where its candidate cannot matter: the exchanged
// distance plus the edge's length exceeds cap. It returns the number of
// such missing entries.
func checkRows(t *testing.T, g *graph.Graph, length func(graph.Arc) int64, fused, ref *Received, k int, cap int64) int {
	t.Helper()
	dropped := 0
	for x := 0; x < g.N(); x++ {
		for _, a := range g.Out(x) {
			for f := 0; f < k; f++ {
				got, want := fused.Get(x, fused.Slot(x, a.To), f), ref.Get(x, ref.Slot(x, a.To), f)
				if got == want {
					continue
				}
				if got == absent && cap >= 0 && want.A+length(a) > cap {
					dropped++
					continue
				}
				t.Fatalf("x=%d y=%d field %d: fused row %v, exchanged %v (cap %d)", x, a.To, f, got, want, cap)
			}
		}
	}
	return dropped
}

// TestFusedRowsMatchExchange runs RunMultiBFS with and without Rows on
// both undirected classes, bounded and unbounded, plain and stretched, at
// bandwidths 2-4 on both engines. Distances must not change, and the fused
// rows must equal the rows ExchangeDistPred delivers for the run wherever
// the candidate can matter (d(f,y) + len(x,y) <= Bound); elsewhere an
// entry may also be missing. The same holds for HopDist's exact engines,
// whose Bound is exclusive and whose Bound 1 keeps only distance 0.
func TestFusedRowsMatchExchange(t *testing.T) {
	dropped := 0
	for _, weighted := range []bool{false, true} {
		for seed := int64(1); seed <= 2; seed++ {
			g, err := (gen.Random{N: 22, P: 0.18, Weighted: weighted, MaxW: 9, Seed: seed}).Graph()
			if err != nil {
				t.Fatal(err)
			}
			sources := []int{0, 3, 5, 8, 13, 21}
			someBound := int64(3) // hops, or weights of up to 9 per edge
			if weighted {
				someBound = 12
			}
			for _, bound := range []int64{0, someBound} {
				for _, stretch := range []bool{false, true} {
					length := func(a graph.Arc) int64 { return a.Weight }
					for _, bw := range []int{2, 3, 4} {
						for _, parallel := range []bool{false, true} {
							name := fmt.Sprintf("weighted=%v/seed=%d/bound=%d/stretch=%v/bw=%d/parallel=%v",
								weighted, seed, bound, stretch, bw, parallel)
							spec := MultiBFSSpec{Sources: sources, Dir: Undirected, Bound: bound, Length: length, Stretch: stretch}
							plain, err := RunMultiBFS(rowsNet(t, g, parallel, bw), spec)
							if err != nil {
								t.Fatal(err)
							}
							spec.Rows = true
							fused, err := RunMultiBFS(rowsNet(t, g, parallel, bw), spec)
							if err != nil {
								t.Fatal(err)
							}
							ref, err := ExchangeDistPred(rowsNet(t, g, parallel, bw), fused, 9, nil)
							if err != nil {
								t.Fatal(err)
							}
							// A node sends at most one message per link per
							// round, so at the default bandwidth of 4 both
							// message sizes arrive the next round and the runs
							// agree message for message. Below it the pred word
							// slows the links, which may change the choice
							// among equal-length predecessors.
							if !slices.EqualFunc(fused.Dist, plain.Dist, slices.Equal) ||
								bw == 4 && !slices.EqualFunc(fused.Pred, plain.Pred, slices.Equal) {
								t.Fatalf("%s: rows changed the distances or predecessors", name)
							}
							cap := bound
							if bound <= 0 {
								cap = -1
							}
							t.Run(name, func(t *testing.T) {
								dropped += checkRows(t, g, length, fused.Rows, ref, len(sources), cap)
							})
						}
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Error("no bounded case pruned a row entry: the pruning rule went untested")
	}

	// HopDist: unit weights (BFS engine), weights (Bellman-Ford) and 0/1
	// weights, where Bound 1 leaves pruning off and only the post-filter
	// drops the nonzero entries.
	base, err := (gen.Random{N: 24, P: 0.15, Seed: 4}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	var zeroOne []graph.Edge
	for _, e := range base.Edges() {
		e.Weight = int64(min(1, (e.From+e.To)%3))
		zeroOne = append(zeroOne, e)
	}
	weighted, err := (gen.Random{N: 24, P: 0.15, Weighted: true, MaxW: 9, Seed: 6}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	dropped = 0
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		bounds []int64
	}{
		{"unweighted", base, []int64{0, 1, 3}},
		{"zero-one", graph.MustBuild(base.N(), zeroOne, graph.Options{Weighted: true}), []int64{0, 1, 2}},
		{"weighted", weighted, []int64{0, 1, 12}},
	} {
		for _, bound := range tc.bounds {
			for _, parallel := range []bool{false, true} {
				t.Run(fmt.Sprintf("hopdist/%s/bound=%d/parallel=%v", tc.name, bound, parallel), func(t *testing.T) {
					spec := HopDistSpec{Sources: []int{0, 4, 9, 15, 23}, Dir: Undirected, Bound: bound}
					plain, err := HopDist(rowsNet(t, tc.g, parallel, 0), spec)
					if err != nil {
						t.Fatal(err)
					}
					spec.Rows = true
					fused, err := HopDist(rowsNet(t, tc.g, parallel, 0), spec)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := ExchangeDistPred(rowsNet(t, tc.g, parallel, 0), fused, 9, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.EqualFunc(fused.Dist, plain.Dist, slices.Equal) || !slices.EqualFunc(fused.Pred, plain.Pred, slices.Equal) {
						t.Fatal("rows changed the distances or predecessors")
					}
					// Pruning keeps d + len <= Bound-1; Bound 1 prunes nothing
					// and must match exactly after the filter.
					cap := bound - 1
					if bound <= 1 {
						cap = -1
					}
					length := func(a graph.Arc) int64 { return a.Weight }
					dropped += checkRows(t, tc.g, length, fused.Rows, ref, len(spec.Sources), cap)
				})
			}
		}
	}
	if dropped == 0 {
		t.Error("no bounded HopDist case pruned a row entry")
	}
}

// heard records the relaxation messages delivered over one directed link.
type heard struct {
	mu       sync.Mutex
	from, to int
	msgs     [][]int64
}

func (h *heard) OnRound(int) {}

func (h *heard) OnMessage(_ int, from, to int, m congest.Msg) {
	if from != h.from || to != h.to || m.Tag != tagBFSPair {
		return
	}
	h.mu.Lock()
	h.msgs = append(h.msgs, slices.Clone(m.Words))
	h.mu.Unlock()
}

// TestFusedRowsKeepFinalUnderResends: Bellman-Ford forwards a distance
// and later a smaller one. Node a first hears 10 from s, then 2 via b, and
// forwards both to x; x's row for a must hold the final (2, pred b).
func TestFusedRowsKeepFinalUnderResends(t *testing.T) {
	const s, a, b, x = 0, 1, 2, 3
	g := graph.MustBuild(4, []graph.Edge{
		{From: s, To: a, Weight: 10}, {From: s, To: b, Weight: 1},
		{From: b, To: a, Weight: 1}, {From: a, To: x, Weight: 1},
	}, graph.Options{Weighted: true})
	for _, parallel := range []bool{false, true} {
		net := rowsNet(t, g, parallel, 0)
		obs := &heard{from: a, to: x}
		net.SetObserver(obs)
		res, err := HopDist(net, HopDistSpec{Sources: []int{s}, Dir: Undirected, Rows: true})
		if err != nil {
			t.Fatal(err)
		}
		want := [][]int64{{0, 11, s}, {0, 3, b}}
		if !slices.EqualFunc(obs.msgs, want, slices.Equal) {
			t.Fatalf("parallel=%v: a sent x %v, want %v", parallel, obs.msgs, want)
		}
		if got := res.Rows.Get(x, res.Rows.Slot(x, a), 0); got != (Pair{A: 2, B: b}) {
			t.Errorf("parallel=%v: x's row for a = %v, want {2 %d}", parallel, got, b)
		}
	}
}

// TestFusedRowsDelayedSendCarriesFinalPred: on the stretched simulation a
// delayed send can leave after its distance was superseded. Node y hears
// s at distance 5 over the direct edge and forwards it onto its length-100
// edge to x; the shorter route s-z-y reaches y later, because z first
// forwards the fields of the u vertices and the z->y link carries one
// message per two rounds at bandwidth 2. Both sends to x must arrive, each
// with y's predecessor at flush time, so x's row ends at (2, pred z).
func TestFusedRowsDelayedSendCarriesFinalPred(t *testing.T) {
	const x, y, z, s, k = 0, 1, 2, 3, 8
	edges := []graph.Edge{
		{From: s, To: z, Weight: 1}, {From: s, To: y, Weight: 5},
		{From: z, To: y, Weight: 1}, {From: y, To: x, Weight: 100},
	}
	sources := make([]int, 0, k+1)
	for u := 4; u < 4+k; u++ {
		edges = append(edges, graph.Edge{From: u, To: z, Weight: 1})
		sources = append(sources, u)
	}
	sources = append(sources, s) // field k, after every u
	g := graph.MustBuild(4+k, edges, graph.Options{Weighted: true})
	for _, parallel := range []bool{false, true} {
		net := rowsNet(t, g, parallel, 2)
		obs := &heard{from: y, to: x}
		net.SetObserver(obs)
		res, err := RunMultiBFS(net, MultiBFSSpec{
			Sources: sources, Dir: Undirected, Stretch: true, Rows: true,
			Length: func(a graph.Arc) int64 { return a.Weight },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist[y][k] != 2 || res.Pred[y][k] != z {
			t.Fatalf("parallel=%v: y's field %d = (%d, pred %d), want (2, pred %d)", parallel, k, res.Dist[y][k], res.Pred[y][k], z)
		}
		var forS [][]int64
		for _, m := range obs.msgs {
			if m[0] == k {
				forS = append(forS, m)
			}
		}
		want := [][]int64{{k, 105, z}, {k, 102, z}}
		if !slices.EqualFunc(forS, want, slices.Equal) {
			t.Fatalf("parallel=%v: y sent x %v for field %d, want %v", parallel, forS, k, want)
		}
		if got := res.Rows.Get(x, res.Rows.Slot(x, y), k); got != (Pair{A: 2, B: z}) {
			t.Errorf("parallel=%v: x's row for y = %v, want {2 %d}", parallel, got, z)
		}
	}
}

// TestFusedRowsRejectUnsupported: rows need exact distances from one
// relaxation on an undirected graph.
func TestFusedRowsRejectUnsupported(t *testing.T) {
	ud := gen.Ring(6, false, false, 1)
	d := gen.Ring(6, true, false, 1)
	uw := gen.Ring(6, false, true, 3)
	if _, err := HopDist(newNet(t, uw), HopDistSpec{Sources: []int{0}, Eps: 0.5, Rows: true}); err == nil {
		t.Error("HopDist returned rows for Eps > 0")
	}
	if _, err := RunMultiBFS(newNet(t, ud), MultiBFSSpec{Sources: []int{0, 1}, TopSigma: 1, Rows: true}); err == nil {
		t.Error("RunMultiBFS returned rows for TopSigma")
	}
	if _, err := RunMultiBFS(newNet(t, d), MultiBFSSpec{Sources: []int{0}, Dir: Forward, Rows: true}); err == nil {
		t.Error("RunMultiBFS returned rows on a directed graph")
	}
	if _, err := HopDist(newNet(t, d), HopDistSpec{Sources: []int{0}, Dir: Undirected, Rows: true}); err == nil {
		t.Error("HopDist returned rows on a directed graph")
	}
}

// TestAnswerBoundKeepsShortDistances: an answer-bounded all-sources run
// keeps every distance below half the girth exact, its non-tree scan
// still finds the girth, it sends no more than the unbounded run, and it
// needs rows and unit lengths.
func TestAnswerBoundKeepsShortDistances(t *testing.T) {
	graphs := []*graph.Graph{gen.Ring(9, false, false, 1), gen.Ring(12, false, false, 1), gen.Grid(5, 6, false, 0, 0)}
	for seed := int64(1); seed <= 4; seed++ {
		g, err := (gen.Random{N: 40, P: 0.1, Seed: seed}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		n := g.N()
		girth, _ := seq.MWC(g)
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		for _, parallel := range []bool{false, true} {
			name := fmt.Sprintf("graph %d/parallel=%v", i, parallel)
			run := func(bound bool) (*MultiBFSResult, int) {
				net := rowsNet(t, g, parallel, 0)
				res, err := RunMultiBFS(net, MultiBFSSpec{Sources: all, Rows: true, AnswerBound: bound})
				if err != nil {
					t.Fatal(err)
				}
				return res, net.Stats().Messages
			}
			res, msgs := run(true)
			_, full := run(false)
			if msgs > full {
				t.Errorf("%s: bounded run sent %d messages, unbounded %d", name, msgs, full)
			}
			for f := 0; f < n; f++ {
				exact := seq.BFS(g, f)
				for v := 0; v < n; v++ {
					if 2*exact[v] < girth && res.Dist[v][f] != exact[v] {
						t.Errorf("%s: d(%d,%d) = %d, want %d below half the girth %d",
							name, f, v, res.Dist[v][f], exact[v], girth)
					}
				}
			}
			best := make([]int64, n)
			for v := range best {
				best[v] = seq.Inf
			}
			NonTreeScan{Res: res, Recv: res.Rows}.Scan(g, best, func(int, int, int) {})
			if got := slices.Min(best); got != girth {
				t.Errorf("%s: scan found %d, girth %d", name, got, girth)
			}
		}
	}
	ring := gen.Ring(6, false, false, 1)
	if _, err := RunMultiBFS(newNet(t, ring), MultiBFSSpec{Sources: []int{0}, AnswerBound: true}); err == nil {
		t.Error("RunMultiBFS bounded a run without rows")
	}
	unit := func(graph.Arc) int64 { return 1 }
	if _, err := RunMultiBFS(newNet(t, ring), MultiBFSSpec{Sources: []int{0}, Rows: true, Length: unit, AnswerBound: true}); err == nil {
		t.Error("RunMultiBFS bounded a run with arc lengths")
	}
}
