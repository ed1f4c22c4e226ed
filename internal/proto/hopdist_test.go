package proto

import (
	"math"
	"testing"

	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

// TestHopDist covers each engine HopDist picks, with and without Bound.
// Exact cases must match seq.Dijkstra; the scaled case must satisfy
// d <= d' <= (1+eps)d. With Bound, every distance is below it and equals the
// unbounded run's, and the scaled engine skips levels (fewer rounds).
func TestHopDist(t *testing.T) {
	mustGraph := func(r gen.Random) *graph.Graph {
		g, err := r.Graph()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// 0/1 weights: MaxWeight 1 but not unit lengths, so hop counting would
	// be wrong; HopDist must still pick the weighted engine.
	base := mustGraph(gen.Random{N: 36, P: 0.12, Seed: 2})
	var zeroOne []graph.Edge
	for _, e := range base.Edges() {
		e.Weight = int64(min(1, (e.From+e.To)%3))
		zeroOne = append(zeroOne, e)
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		eps   float64
		bound int64
	}{
		{"unweighted", mustGraph(gen.Random{N: 40, P: 0.1, Seed: 5}), 0, 3},
		{"zero-one", graph.MustBuild(base.N(), zeroOne, graph.Options{Weighted: true}), 0, 1},
		{"weighted-exact", mustGraph(gen.Random{N: 36, P: 0.12, Weighted: true, MaxW: 9, Seed: 8}), 0, 12},
		{"weighted-eps", mustGraph(gen.Random{N: 36, P: 0.12, Weighted: true, MaxW: 9, Seed: 4}), 0.5, 6},
	}
	sources := []int{0, 5, 17}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := HopDistSpec{Sources: sources, Dir: Undirected, Eps: tc.eps}
			full, err := HopDist(newNet(t, tc.g), spec)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range sources {
				want := seq.Dijkstra(tc.g, s)
				for v := 0; v < tc.g.N(); v++ {
					d, w := full.Dist[v][i], want[v]
					if tc.eps == 0 || w >= seq.Inf {
						if d != w {
							t.Fatalf("dist[%d] from %d = %d, want %d", v, s, d, w)
						}
					} else if d < w || float64(d) > math.Ceil((1+tc.eps)*float64(w)) {
						t.Fatalf("dist[%d] from %d = %d, want in [%d, (1+%v)*%d]", v, s, d, w, tc.eps, w)
					}
				}
			}

			spec.Bound = tc.bound
			bounded, err := HopDist(newNet(t, tc.g), spec)
			if err != nil {
				t.Fatal(err)
			}
			kept, dropped := 0, 0
			for v := range full.Dist {
				for i, d := range full.Dist[v] {
					want := d
					if d >= tc.bound {
						want = seq.Inf
						dropped++
					} else {
						kept++
					}
					if got := bounded.Dist[v][i]; got != want {
						t.Fatalf("bound %d: dist[%d][%d] = %d, want %d (unbounded %d)", tc.bound, v, i, got, want, d)
					}
				}
			}
			if kept == 0 || dropped == 0 {
				t.Fatalf("bound %d kept %d and dropped %d distances; pick a bound that splits them", tc.bound, kept, dropped)
			}
			if tc.eps > 0 && bounded.Rounds >= full.Rounds {
				t.Errorf("bounded run took %d rounds, unbounded %d: no level skipped", bounded.Rounds, full.Rounds)
			}
		})
	}
}

// sameResult fails unless a and b carry identical distances and rounds.
func sameResult(t *testing.T, what string, a, b *MultiBFSResult) {
	t.Helper()
	if a.Rounds != b.Rounds {
		t.Fatalf("%s: %d rounds vs %d", what, a.Rounds, b.Rounds)
	}
	for v := range a.Dist {
		for i := range a.Dist[v] {
			if a.Dist[v][i] != b.Dist[v][i] {
				t.Fatalf("%s: dist[%d][%d] %d vs %d", what, v, i, a.Dist[v][i], b.Dist[v][i])
			}
		}
	}
}

// TestDefaultSubstrate checks the engine HopDist picks for each regime by
// comparing its result (distances and rounds) with a direct run of the
// engine: BFS on unweighted graphs, the scaled SSSP for eps > 0 and
// Bellman-Ford on weighted graphs with eps = 0.
func TestDefaultSubstrate(t *testing.T) {
	ug, err := (gen.Random{N: 30, P: 0.12, Seed: 3}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	wg, err := (gen.Random{N: 30, P: 0.12, Weighted: true, MaxW: 9, Seed: 3}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 7}
	weight := func(a graph.Arc) int64 { return a.Weight }
	cases := []struct {
		name   string
		g      *graph.Graph
		eps    float64
		direct func(t *testing.T) *MultiBFSResult
	}{
		{"bfs", ug, 0, func(t *testing.T) *MultiBFSResult {
			res, err := RunMultiBFS(newNet(t, ug), MultiBFSSpec{Sources: sources, Dir: Undirected})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"scaled", wg, 0.25, func(t *testing.T) *MultiBFSResult {
			res, err := RunApproxHopSSSP(newNet(t, wg), ApproxHopSSSPSpec{
				Sources: sources, H: wg.N(), Eps: 0.25, Dir: Undirected,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"bellman-ford", wg, 0, func(t *testing.T) *MultiBFSResult {
			res, err := RunMultiBFS(newNet(t, wg), MultiBFSSpec{Sources: sources, Dir: Undirected, Length: weight})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	}
	for _, tc := range cases {
		got, err := HopDist(newNet(t, tc.g), HopDistSpec{Sources: sources, Dir: Undirected, Eps: tc.eps})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, tc.name, got, tc.direct(t))
	}
}

// TestBFSAndBellmanFordAgreeUnweighted runs both exact engines on an
// unweighted graph: HopDist's BFS and Bellman-Ford on the (unit) arc weights
// must give the same distances.
func TestBFSAndBellmanFordAgreeUnweighted(t *testing.T) {
	g, err := (gen.Random{N: 40, P: 0.1, Seed: 5}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 3, 17}
	a, err := HopDist(newNet(t, g), HopDistSpec{Sources: sources, Dir: Undirected})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMultiBFS(newNet(t, g), MultiBFSSpec{
		Sources: sources, Dir: Undirected,
		Length: func(a graph.Arc) int64 { return a.Weight },
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for i := range sources {
			if a.Dist[v][i] != b.Dist[v][i] {
				t.Fatalf("dist[%d][%d]: bfs %d vs bellman-ford %d", v, i, a.Dist[v][i], b.Dist[v][i])
			}
		}
	}
}

func TestBellmanFordExactWeighted(t *testing.T) {
	g, err := (gen.Random{N: 36, P: 0.12, Weighted: true, MaxW: 9, Seed: 8}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{2, 11}
	res, err := HopDist(newNet(t, g), HopDistSpec{Sources: sources, Dir: Undirected})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		want := seq.Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			if res.Dist[v][i] != want[v] {
				t.Fatalf("dist[%d] from %d = %d, want %d", v, s, res.Dist[v][i], want[v])
			}
		}
	}
}

func TestBellmanFordWeightBoundPrunes(t *testing.T) {
	g, err := (gen.Random{N: 36, P: 0.12, Weighted: true, MaxW: 9, Seed: 8}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	const bound = 12
	res, err := HopDist(newNet(t, g), HopDistSpec{
		Sources: []int{2}, Dir: Undirected, Bound: bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Dijkstra(g, 2)
	for v := 0; v < g.N(); v++ {
		switch {
		case want[v] < bound && res.Dist[v][0] != want[v]:
			t.Fatalf("dist[%d] = %d, want %d (below bound)", v, res.Dist[v][0], want[v])
		case want[v] >= bound && res.Dist[v][0] < seq.Inf:
			t.Fatalf("dist[%d] = %d survived bound %d (true %d)", v, res.Dist[v][0], bound, want[v])
		}
	}
}

func TestScaledSubstrateRatioAndBound(t *testing.T) {
	g, err := (gen.Random{N: 36, P: 0.12, Weighted: true, MaxW: 9, Seed: 4}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.5
	res, err := HopDist(newNet(t, g), HopDistSpec{
		Sources: []int{0}, Dir: Undirected, Eps: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Dijkstra(g, 0)
	for v := 0; v < g.N(); v++ {
		d := res.Dist[v][0]
		if want[v] >= seq.Inf {
			if d < seq.Inf {
				t.Fatalf("dist[%d] = %d for unreachable node", v, d)
			}
			continue
		}
		if d < want[v] {
			t.Fatalf("dist[%d] = %d below true %d", v, d, want[v])
		}
		if float64(d) > (1+eps)*float64(want[v])+1 {
			t.Fatalf("dist[%d] = %d exceeds (1+eps) * %d", v, d, want[v])
		}
	}
	bounded, err := HopDist(newNet(t, g), HopDistSpec{
		Sources: []int{0}, Dir: Undirected, Eps: eps, Bound: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if d := bounded.Dist[v][0]; d >= 5 && d < seq.Inf {
			t.Fatalf("bounded dist[%d] = %d survived bound 5", v, d)
		}
	}
}

func TestScaledSubstrateBoundSkipsLevels(t *testing.T) {
	g, err := (gen.Random{N: 36, P: 0.12, Weighted: true, MaxW: 9, Seed: 4}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	spec := HopDistSpec{Sources: []int{0, 5}, Dir: Undirected, Eps: 0.5}
	full, err := HopDist(newNet(t, g), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Bound = 6
	capped, err := HopDist(newNet(t, g), spec)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Rounds >= full.Rounds {
		t.Errorf("bounded run took %d rounds, unbounded %d: no level skipped", capped.Rounds, full.Rounds)
	}
	for v := range full.Dist {
		for i, d := range full.Dist[v] {
			want := d
			if d >= spec.Bound {
				want = seq.Inf
			}
			if got := capped.Dist[v][i]; got != want {
				t.Fatalf("dist[%d][%d] = %d, want %d (unbounded %d, bound %d)", v, i, got, want, d, spec.Bound)
			}
		}
	}
}
