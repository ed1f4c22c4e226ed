package check

import (
	"bytes"
	"math/rand"
	"testing"

	"congestmwc"
	"congestmwc/internal/graphio"
)

// TestMinimizeInvertedRatioOracle is the acceptance demo for the
// minimizer: a deliberately broken oracle whose ratio bound is inverted
// (it "fails" whenever the approximation meets its guarantee, i.e. on
// every correct run) must shrink a mid-sized failing instance to a tiny
// reproducer — at most 8 vertices — that still loads through graphio.
func TestMinimizeInvertedRatioOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inst := ShapeInstance(rng, congestmwc.Undirected, ShapeSparse, 40)
	opts := RunOptions{Seed: 3, Algos: []string{congestmwc.AlgoNameApprox}}
	approx, _ := congestmwc.AlgorithmByName(congestmwc.AlgoNameApprox)

	// Inverted bound: flag the instance when the approximation is WITHIN
	// the class ratio bound. Correct behaviour becomes "failing", so the
	// minimizer can shrink all the way down to the smallest cycle.
	brokenOracle := func(in Instance) bool {
		out, err := Run(in, opts)
		if err != nil {
			return false
		}
		r := out.Runs[approx.Name]
		if !out.RefFound || r.Err != nil || !r.Res.Found {
			return false
		}
		return r.Res.Weight <= approx.Bound(in.Class, out.Ref, opts.Eps)
	}
	if !brokenOracle(inst) {
		t.Fatal("seed instance does not trip the inverted oracle")
	}

	minimized := Minimize(inst, brokenOracle, MinimizeOptions{})
	if !brokenOracle(minimized) {
		t.Fatal("minimized instance no longer fails the predicate")
	}
	if minimized.N > 8 {
		t.Fatalf("minimizer stopped at %d vertices (%d edges), want <= 8",
			minimized.N, len(minimized.Edges))
	}

	// The reproducer must round-trip as a corpus file AND as a plain
	// graphio file (the corpus format is graphio plus comments).
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, minimized, map[string]string{"oracle": "inverted-ratio"}); err != nil {
		t.Fatal(err)
	}
	g, err := graphio.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("minimized reproducer is not a loadable graphio file: %v", err)
	}
	if g.N() != minimized.N || g.M() != len(minimized.Edges) {
		t.Fatalf("reproducer shape changed through graphio: %d/%d vs %d/%d",
			g.N(), g.M(), minimized.N, len(minimized.Edges))
	}
	back, _, err := ReadCorpus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !brokenOracle(back) {
		t.Fatal("reloaded reproducer no longer fails the predicate")
	}
}

// TestMinimizeWeightsAndContraction: with a simulation-free predicate
// (sequential reference MWC stays >= 8) the minimizer must both contract
// degree-2 ring vertices and halve weights down to the smallest instance
// that still carries the weight — exercising the weighted transforms.
func TestMinimizeWeightsAndContraction(t *testing.T) {
	const n = 10
	edges := make([]congestmwc.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, congestmwc.Edge{From: i, To: (i + 1) % n, Weight: 4})
	}
	inst := Instance{Class: congestmwc.UndirectedWeighted, N: n, Edges: edges, Label: "ring"}

	failing := func(in Instance) bool {
		g, err := in.Graph()
		if err != nil {
			return false
		}
		w, err := congestmwc.ReferenceMWC(g)
		return err == nil && w >= 8
	}
	if !failing(inst) {
		t.Fatal("seed ring does not satisfy the predicate")
	}
	minimized := Minimize(inst, failing, MinimizeOptions{})
	if !failing(minimized) {
		t.Fatal("minimized instance no longer satisfies the predicate")
	}
	if minimized.N > 3 {
		t.Errorf("contraction missed: still %d vertices (%d edges): %+v",
			minimized.N, len(minimized.Edges), minimized.Edges)
	}
	var total int64
	for _, e := range minimized.Edges {
		total += e.Weight
	}
	if total > 9 {
		t.Errorf("weight halving missed: minimized cycle weighs %d, want <= 9", total)
	}
}

// TestMinimizeRespectsBudget: MaxEvals bounds predicate evaluations.
func TestMinimizeRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := ShapeInstance(rng, congestmwc.Undirected, ShapeDense, 16)
	evals := 0
	Minimize(inst, func(in Instance) bool {
		evals++
		return true
	}, MinimizeOptions{MaxEvals: 25})
	if evals > 25 {
		t.Fatalf("predicate evaluated %d times, budget 25", evals)
	}
}

// TestMinimizeNeverReturnsPassing: when nothing smaller reproduces, the
// input comes back unchanged.
func TestMinimizeNeverReturnsPassing(t *testing.T) {
	inst := Instance{
		Class: congestmwc.Undirected,
		N:     3,
		Edges: []congestmwc.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 2}},
	}
	key := func(in Instance) [2]int { return [2]int{in.N, len(in.Edges)} }
	got := Minimize(inst, func(in Instance) bool { return in.N == 3 && len(in.Edges) == 3 }, MinimizeOptions{})
	if key(got) != key(inst) {
		t.Fatalf("already-minimal instance changed: %+v", got)
	}
}
