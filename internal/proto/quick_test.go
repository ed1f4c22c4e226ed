package proto

import (
	"testing"
	"testing/quick"

	"congestmwc/internal/congest"
	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

// Property: multi-source BFS equals the sequential reference on random
// graphs, for random source sets, both directions, all graph classes.
func TestMultiBFSAgreesWithSeqProperty(t *testing.T) {
	prop := func(nRaw, srcRaw uint8, directed bool, seed int64) bool {
		n := 5 + int(nRaw)%40
		g, err := (gen.Random{N: n, P: 0.12, Directed: directed, Seed: seed}).Graph()
		if err != nil {
			return false
		}
		net, err := congest.NewNetwork(g, congest.Options{Seed: seed + 1})
		if err != nil {
			return false
		}
		sources := []int{int(srcRaw) % n, (int(srcRaw) * 7) % n}
		if sources[0] == sources[1] {
			sources = sources[:1]
		}
		res, err := RunMultiBFS(net, MultiBFSSpec{Sources: sources, Dir: Forward})
		if err != nil {
			return false
		}
		for i, s := range sources {
			want := seq.BFS(g, s)
			for v := 0; v < n; v++ {
				if res.Dist[v][i] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: weighted relaxation (non-stretched) equals Dijkstra.
func TestMultiBFSWeightedAgreesWithDijkstraProperty(t *testing.T) {
	prop := func(nRaw uint8, seed int64) bool {
		n := 5 + int(nRaw)%30
		g, err := (gen.Random{N: n, P: 0.15, Directed: true, Weighted: true,
			MaxW: 12, Seed: seed}).Graph()
		if err != nil {
			return false
		}
		net, err := congest.NewNetwork(g, congest.Options{Seed: seed})
		if err != nil {
			return false
		}
		res, err := RunMultiBFS(net, MultiBFSSpec{
			Sources: []int{0},
			Dir:     Forward,
			Length:  func(a graph.Arc) int64 { return a.Weight },
		})
		if err != nil {
			return false
		}
		want := seq.Dijkstra(g, 0)
		for v := 0; v < n; v++ {
			if res.Dist[v][0] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the approximate hop-bounded SSSP brackets the true distance:
// d <= d' <= (1+eps) d (+1 rounding) for pairs whose shortest paths fit the
// hop budget.
func TestApproxHopSSSPBracketsProperty(t *testing.T) {
	const eps = 0.5
	prop := func(nRaw uint8, seed int64) bool {
		n := 5 + int(nRaw)%25
		g, err := (gen.Random{N: n, P: 0.15, Weighted: true, MaxW: 16, Seed: seed}).Graph()
		if err != nil {
			return false
		}
		net, err := congest.NewNetwork(g, congest.Options{Seed: seed})
		if err != nil {
			return false
		}
		res, err := RunApproxHopSSSP(net, ApproxHopSSSPSpec{
			Sources: []int{0}, H: n, Eps: eps, Dir: Undirected,
		})
		if err != nil {
			return false
		}
		want := seq.Dijkstra(g, 0)
		for v := 0; v < n; v++ {
			got := res.Dist[v][0]
			if want[v] >= seq.Inf {
				if got < seq.Inf {
					return false
				}
				continue
			}
			if got < want[v] || float64(got) > (1+eps)*float64(want[v])+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: broadcast delivers every record to every node exactly once.
func TestBroadcastCompletenessProperty(t *testing.T) {
	prop := func(nRaw uint8, mRaw uint8, seed int64) bool {
		n := 3 + int(nRaw)%30
		g, err := (gen.Random{N: n, P: 0.1, Seed: seed}).Graph()
		if err != nil {
			return false
		}
		net, err := congest.NewNetwork(g, congest.Options{Seed: seed})
		if err != nil {
			return false
		}
		tree, err := BuildTree(net, 0)
		if err != nil {
			return false
		}
		total := 0
		values := make([][][]int64, n)
		for v := 0; v < n && total < int(mRaw)%20; v++ {
			values[v] = [][]int64{{int64(v)}}
			total++
		}
		out, err := Broadcast(net, tree, values)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if len(out[v]) != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: plain weighted relaxation handles zero-weight edges exactly
// (they are data, not delays).
func TestMultiBFSZeroWeightsProperty(t *testing.T) {
	prop := func(nRaw uint8, seed int64) bool {
		n := 4 + int(nRaw)%20
		g, err := (gen.Random{N: n, P: 0.2, Weighted: true, MaxW: 5, Seed: seed}).Graph()
		if err != nil {
			return false
		}
		// Zero out every third edge.
		zg, err := g.ScaleWeights(func(w int64) int64 { return w % 3 })
		if err != nil {
			return false
		}
		net, err := congest.NewNetwork(zg, congest.Options{Seed: seed})
		if err != nil {
			return false
		}
		res, err := RunMultiBFS(net, MultiBFSSpec{
			Sources: []int{0}, Dir: Undirected,
			Length: func(a graph.Arc) int64 { return a.Weight },
		})
		if err != nil {
			return false
		}
		want := seq.Dijkstra(zg, 0)
		for v := 0; v < n; v++ {
			if res.Dist[v][0] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Directed graphs traversed Undirected give a node an Out and an In arc to
// the same neighbour, with different stretched lengths. Delayed sends due
// in one round must then leave on that link in creation order (the longer
// arc's first); these instances diverge from the pinned model cost when
// they leave in arc order.
func TestStretchedSharedLinkSendOrder(t *testing.T) {
	cases := []struct {
		seed  int64
		sigma int
		want  congest.Stats
	}{
		{16, 0, congest.Stats{Rounds: 19, Messages: 1071, Words: 3213, Activations: 254}},
		{16, 3, congest.Stats{Rounds: 13, Messages: 647, Words: 1941, Activations: 195}},
		{34, 0, congest.Stats{Rounds: 17, Messages: 1351, Words: 4053, Activations: 249}},
	}
	for _, tc := range cases {
		g, err := (gen.Random{N: 18, P: 0.3, Directed: true, Weighted: true, MaxW: 7, Seed: tc.seed}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		net, err := congest.NewNetwork(g, congest.Options{Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		sources := []int{0, 3, 5, 7, 11}
		if tc.sigma > 0 {
			sources = make([]int, g.N())
			for i := range sources {
				sources[i] = i
			}
		}
		if _, err := RunMultiBFS(net, MultiBFSSpec{
			Sources: sources, Dir: Undirected, Stretch: true, TopSigma: tc.sigma,
			Length: func(a graph.Arc) int64 { return a.Weight }, Bound: tc.seed % 20,
		}); err != nil {
			t.Fatal(err)
		}
		if got := net.Stats(); got != tc.want {
			t.Errorf("seed %d sigma %d: stats %+v, want %+v", tc.seed, tc.sigma, got, tc.want)
		}
	}
}

// A Bound on the scaled SSSP skips the levels that cannot produce an
// estimate below it: every pair whose unbounded estimate is below Bound
// keeps exactly that estimate and predecessor, no bounded estimate
// undercuts the unbounded one, and the run never costs more rounds. Small
// hop budgets make the hop limit bite, where a high level can be the
// only one a path fits in.
func TestApproxHopSSSPBoundKeepsEstimatesBelow(t *testing.T) {
	for _, tc := range []struct {
		directed bool
		maxW     int64
		h        int
	}{
		{false, 9, 30}, {false, 9, 3}, {true, 9, 4}, {false, 1000, 5}, {true, 1000, 30},
	} {
		g, err := (gen.Random{N: 30, P: 0.12, Directed: tc.directed, Weighted: true,
			MaxW: tc.maxW, Seed: tc.maxW + int64(tc.h)}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		dir := Undirected
		if tc.directed {
			dir = Forward
		}
		spec := ApproxHopSSSPSpec{Sources: []int{0, 7, 19}, H: tc.h, Eps: 0.5, Dir: dir}
		full, err := RunApproxHopSSSP(newNet(t, g), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []int64{1, 2, 3, 5, 8, tc.maxW, 3 * tc.maxW, 1 << 40} {
			spec.Bound = bound
			capped, err := RunApproxHopSSSP(newNet(t, g), spec)
			if err != nil {
				t.Fatal(err)
			}
			if capped.Rounds > full.Rounds || (bound == 2 && capped.Rounds == full.Rounds) {
				t.Errorf("%+v bound %d: %d rounds, unbounded %d", tc, bound, capped.Rounds, full.Rounds)
			}
			for v := range full.Dist {
				for i, d := range full.Dist[v] {
					c := capped.Dist[v][i]
					if c < d {
						t.Fatalf("%+v bound %d: dist[%d][%d] = %d undercuts unbounded %d", tc, bound, v, i, c, d)
					}
					if d < bound && (c != d || capped.Pred[v][i] != full.Pred[v][i]) {
						t.Fatalf("%+v bound %d: dist[%d][%d] = %d/pred %d, unbounded %d/pred %d",
							tc, bound, v, i, c, capped.Pred[v][i], d, full.Pred[v][i])
					}
				}
			}
		}
	}
}
