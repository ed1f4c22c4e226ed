package main

import (
	"fmt"
	"math/rand"

	"congestmwc"
)

var classes = []congestmwc.Class{
	congestmwc.Undirected, congestmwc.Directed, congestmwc.UndirectedWeighted, congestmwc.DirectedWeighted,
}

// classCode is the jobs wire name of a class.
func classCode(c congestmwc.Class) string {
	return map[congestmwc.Class]string{
		congestmwc.Undirected: "ud", congestmwc.Directed: "d",
		congestmwc.UndirectedWeighted: "uw", congestmwc.DirectedWeighted: "dw",
	}[c]
}

func directed(c congestmwc.Class) bool {
	return c == congestmwc.Directed || c == congestmwc.DirectedWeighted
}

func weighted(c congestmwc.Class) bool {
	return c == congestmwc.UndirectedWeighted || c == congestmwc.DirectedWeighted
}

// instance is one generated input with its reference answer.
type instance struct {
	n     int
	class congestmwc.Class
	edges []congestmwc.Edge
	ref   int64
}

// randomInstance draws a connected random graph: a path backbone (both
// directions on directed classes) plus p times the number of vertex pairs
// in random extra edges, weights uniform in [1, maxW] on weighted classes. The reference MWC
// is computed here, before any set-up is timed.
func randomInstance(rng *rand.Rand, n int, p float64, c congestmwc.Class, maxW int64) (instance, error) {
	seen := map[[2]int]bool{}
	var es []congestmwc.Edge
	add := func(u, v int) {
		k := [2]int{u, v}
		if !directed(c) && u > v {
			k = [2]int{v, u}
		}
		if u == v || seen[k] {
			return
		}
		seen[k] = true
		w := int64(1)
		if weighted(c) {
			w = 1 + rng.Int63n(maxW)
		}
		es = append(es, congestmwc.Edge{From: u, To: v, Weight: w})
	}
	for i := 0; i+1 < n; i++ {
		add(i, i+1)
		if directed(c) {
			add(i+1, i)
		}
	}
	// Exactly the expected number of random pairs, not a Bernoulli draw per
	// pair: the edge count, and with it the per-run cost, varies less
	// between instances.
	pairs := n * (n - 1)
	if !directed(c) {
		pairs /= 2
	}
	for want := len(es) + int(p*float64(pairs)+0.5); len(es) < want; {
		add(rng.Intn(n), rng.Intn(n))
	}
	inst := instance{n: n, class: c, edges: es}
	g, err := inst.graph()
	if err != nil {
		return inst, err
	}
	inst.ref, err = congestmwc.ReferenceMWC(g)
	return inst, err
}

func (in instance) graph() (*congestmwc.Graph, error) {
	return congestmwc.NewGraph(in.n, in.edges, in.class)
}

// checkAnswer verifies one answer against the reference: exact answers
// must equal it, approximate ones must be sound (never below it) and
// within ratio; a witness cycle, required for exact answers, must verify
// on the graph at no more than the reported weight.
func checkAnswer(g *congestmwc.Graph, ref, weight int64, found bool, cycle []int, ratio float64) error {
	if !found {
		return fmt.Errorf("no cycle found, reference %d", ref)
	}
	if weight < ref {
		return fmt.Errorf("unsound weight %d below reference %d", weight, ref)
	}
	if float64(weight) > ratio*float64(ref) {
		return fmt.Errorf("weight %d exceeds %g x reference %d", weight, ratio, ref)
	}
	if cycle == nil {
		if ratio == 1 {
			return fmt.Errorf("exact answer without a witness cycle")
		}
		return nil
	}
	w, err := g.VerifyCycle(cycle)
	if err != nil {
		return fmt.Errorf("witness: %w", err)
	}
	if w > weight || w < ref {
		return fmt.Errorf("witness weighs %d, reported %d, reference %d", w, weight, ref)
	}
	return nil
}
