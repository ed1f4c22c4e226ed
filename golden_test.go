package congestmwc

// Golden model cost of the approximation pipeline: on fixed instances of
// every class and under both engines, approx must report exactly these
// weights, rounds, messages, node activations and witness cycles. The
// figures are deterministic model cost, so node-local engineering (data
// layout, wake-up bookkeeping, allocation) must leave them bit-identical;
// an algorithmic change that moves them re-derives the table from the
// failure message, which prints each case as a Go literal.

import (
	"fmt"
	"reflect"
	"testing"

	"congestmwc/internal/obs"
)

type goldenCost struct {
	weight      int64
	rounds      int
	messages    int
	activations int
	cycle       []int
}

func TestApproxGoldenModelCost(t *testing.T) {
	cases := []struct {
		class Class
		n     int
		seed  int64
		want  goldenCost
	}{
		{Undirected, 64, 1, goldenCost{3, 25, 3079, 918, []int{1, 52, 51}}},
		{Undirected, 64, 2, goldenCost{3, 34, 3220, 964, []int{0, 54, 1}}},
		{Directed, 32, 1, goldenCost{2, 43, 6412, 1184, []int{1, 0}}},
		{Directed, 32, 2, goldenCost{2, 43, 7132, 1178, []int{1, 0}}},
		{UndirectedWeighted, 24, 1, goldenCost{6, 6506, 8063, 6132, []int{14, 22, 23}}},
		{UndirectedWeighted, 24, 2, goldenCost{6, 6632, 12527, 9431, []int{1, 16, 4}}},
		{DirectedWeighted, 20, 1, goldenCost{3, 7224, 9280, 5886, []int{12, 11}}},
		{DirectedWeighted, 20, 2, goldenCost{2, 3653, 5624, 3371, []int{19, 18}}},
		{Undirected, 96, 3, goldenCost{3, 41, 5904, 1828, []int{0, 76, 47}}},
		{Directed, 40, 3, goldenCost{2, 51, 9532, 1800, []int{1, 0}}},
		{UndirectedWeighted, 32, 3, goldenCost{7, 8283, 15004, 10351, []int{0, 24, 12}}},
		{DirectedWeighted, 24, 3, goldenCost{4, 8218, 8039, 5548, []int{10, 9}}},
	}
	for _, tc := range cases {
		tc := tc
		for _, parallel := range []bool{false, true} {
			name := fmt.Sprintf("%s/n=%d/seed=%d/parallel=%v", tc.class, tc.n, tc.seed, parallel)
			t.Run(name, func(t *testing.T) {
				g := regressionGraph(t, tc.class, tc.n, tc.seed)
				col := &obs.Collector{NoSeries: true, NoPerTag: true, NoPerLink: true}
				opts := Options{Seed: tc.seed, Parallel: parallel}
				if parallel {
					opts.Workers = 2
				}
				res, err := ApproxMWC(g, opts.WithObserver(col))
				if err != nil {
					t.Fatal(err)
				}
				got := goldenCost{
					weight:      res.Weight,
					rounds:      res.Rounds,
					messages:    res.Messages,
					activations: col.Activations,
					cycle:       res.Cycle,
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("model cost moved:\n got  %s\n want %s", goldenLiteral(got), goldenLiteral(tc.want))
				}
			})
		}
	}
}

func goldenLiteral(c goldenCost) string {
	return fmt.Sprintf("goldenCost{%d, %d, %d, %d, %#v}", c.weight, c.rounds, c.messages, c.activations, c.cycle)
}
