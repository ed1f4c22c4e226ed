package congestmwc

// Round-count regression pins: the simulator and every algorithm are
// deterministic given a seed, so the exact number of CONGEST rounds on a
// fixed instance is a stable fingerprint of the implementation. If an
// intentional algorithmic change shifts these numbers, re-derive them by
// running the cases and updating the table — an unintentional shift is a
// performance or correctness regression.

import (
	"testing"

	"congestmwc/internal/gen"
)

func regressionGraph(t *testing.T, class Class, n int, seed int64) *Graph {
	t.Helper()
	r := gen.Random{
		N: n, P: 4.0 / float64(n), Seed: seed, MaxW: 9,
		Directed: class == Directed || class == DirectedWeighted,
		Weighted: class == UndirectedWeighted || class == DirectedWeighted,
	}
	inner, err := r.Graph()
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]Edge, 0, inner.M())
	for _, e := range inner.Edges() {
		edges = append(edges, Edge{From: e.From, To: e.To, Weight: e.Weight})
	}
	g, err := NewGraph(n, edges, class)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRoundCountRegression(t *testing.T) {
	cases := []struct {
		class                     Class
		approxRounds, exactRounds int
		approxWeight, exactWeight int64
	}{
		{class: Undirected, approxRounds: 23, approxWeight: 3, exactRounds: 59, exactWeight: 3},
		{class: Directed, approxRounds: 60, approxWeight: 2, exactRounds: 60, exactWeight: 2},
		{class: UndirectedWeighted, approxRounds: 11003, approxWeight: 8, exactRounds: 61, exactWeight: 8},
		{class: DirectedWeighted, approxRounds: 15537, approxWeight: 3, exactRounds: 61, exactWeight: 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.class.String(), func(t *testing.T) {
			g := regressionGraph(t, tc.class, 48, 11)
			a, err := ApproxMWC(g, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if a.Rounds != tc.approxRounds || a.Weight != tc.approxWeight {
				t.Errorf("approx: got (%d rounds, weight %d), pinned (%d, %d) — "+
					"intentional change? update the table",
					a.Rounds, a.Weight, tc.approxRounds, tc.approxWeight)
			}
			e, err := ExactMWC(g, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if e.Rounds != tc.exactRounds || e.Weight != tc.exactWeight {
				t.Errorf("exact: got (%d rounds, weight %d), pinned (%d, %d) — "+
					"intentional change? update the table",
					e.Rounds, e.Weight, tc.exactRounds, tc.exactWeight)
			}
		})
	}
}
