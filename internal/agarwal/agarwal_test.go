package agarwal

import (
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

func newNet(t *testing.T, g *graph.Graph, seed int64) *congest.Network {
	t.Helper()
	net, err := congest.NewNetwork(g, congest.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func classes() []struct {
	name               string
	directed, weighted bool
} {
	return []struct {
		name               string
		directed, weighted bool
	}{
		{"ud", false, false},
		{"d", true, false},
		{"uw", false, true},
		{"dw", true, true},
	}
}

func TestMWCMatchesReference(t *testing.T) {
	for _, c := range classes() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				g, err := (gen.Random{
					N: 40, P: 0.08, Directed: c.directed,
					Weighted: c.weighted, MaxW: 9, Seed: seed,
				}).Graph()
				if err != nil {
					t.Fatal(err)
				}
				wantW, wantFound := seq.MWC(g)
				res, err := MWC(newNet(t, g, seed+50), Spec{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Found != wantFound || (wantFound && res.Weight != wantW) {
					t.Fatalf("seed %d: got (%d,%v), want (%d,%v)",
						seed, res.Weight, res.Found, wantW, wantFound)
				}
				if wantFound {
					if res.Cycle == nil {
						t.Fatalf("seed %d: no witness", seed)
					}
					w, err := seq.VerifyCycle(g, res.Cycle)
					if err != nil {
						t.Fatalf("seed %d: bad witness: %v", seed, err)
					}
					if w != wantW {
						t.Fatalf("seed %d: witness weight %d, want %d", seed, w, wantW)
					}
				}
			}
		})
	}
}

func TestPruningDoesNotChangeAnswer(t *testing.T) {
	for _, c := range classes() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				g, err := (gen.Random{
					N: 32, P: 0.1, Directed: c.directed,
					Weighted: c.weighted, MaxW: 9, Seed: seed + 7,
				}).Graph()
				if err != nil {
					t.Fatal(err)
				}
				pruned, err := MWC(newNet(t, g, 9), Spec{})
				if err != nil {
					t.Fatal(err)
				}
				plain, err := MWC(newNet(t, g, 9), Spec{NoPrune: true})
				if err != nil {
					t.Fatal(err)
				}
				if pruned.Weight != plain.Weight || pruned.Found != plain.Found {
					t.Fatalf("seed %d: pruned (%d,%v) vs plain (%d,%v)",
						seed, pruned.Weight, pruned.Found, plain.Weight, plain.Found)
				}
			}
		})
	}
}

func TestBatchSizeSweep(t *testing.T) {
	g, err := (gen.Random{N: 30, P: 0.12, Weighted: true, MaxW: 9, Seed: 4}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	wantW, wantFound := seq.MWC(g)
	for _, k := range []int{1, 3, 7, 30, 100} {
		res, err := MWC(newNet(t, g, 4), Spec{BatchSize: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Found != wantFound || res.Weight != wantW {
			t.Fatalf("k=%d: got (%d,%v), want (%d,%v)", k, res.Weight, res.Found, wantW, wantFound)
		}
		wantBatches := (g.N() + min(k, g.N()) - 1) / min(k, g.N())
		if res.Batches > wantBatches {
			t.Fatalf("k=%d: %d batches, expected at most %d", k, res.Batches, wantBatches)
		}
	}
}

func TestZeroWeightCycleStopsEarly(t *testing.T) {
	// Triangle of weight-0 edges among vertices 0..2 plus a long tail: once
	// batch 0 finds the zero cycle, the remaining batches are skipped.
	edges := []graph.Edge{
		{From: 0, To: 1, Weight: 0}, {From: 1, To: 2, Weight: 0}, {From: 2, To: 0, Weight: 0},
	}
	for v := 2; v < 19; v++ {
		edges = append(edges, graph.Edge{From: v, To: v + 1, Weight: 5})
	}
	g := graph.MustBuild(20, edges, graph.Options{Weighted: true})
	res, err := MWC(newNet(t, g, 1), Spec{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Weight != 0 {
		t.Fatalf("got (%d,%v), want (0,true)", res.Weight, res.Found)
	}
	if res.Batches != 1 {
		t.Fatalf("ran %d batches, want 1 (early stop)", res.Batches)
	}
	if res.Cycle == nil {
		t.Fatal("no witness for the zero cycle")
	}
}

func TestAcyclicFindsNothing(t *testing.T) {
	g := gen.Path(12)
	res, err := MWC(newNet(t, g, 2), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("found %d in an acyclic graph", res.Weight)
	}
}

func TestPruningSavesWork(t *testing.T) {
	// A planted short cycle at low vertex IDs should let pruning bound the
	// later batches: the pruned run may not use more rounds than the
	// unpruned one.
	g, _, err := (gen.PlantedCycle{
		N: 48, CycleLen: 3, CycleW: 3, Weighted: true, BackgroundDeg: 3, Seed: 2,
	}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := MWC(newNet(t, g, 3), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MWC(newNet(t, g, 3), Spec{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Weight != plain.Weight {
		t.Fatalf("pruned %d vs plain %d", pruned.Weight, plain.Weight)
	}
	if pruned.Rounds > plain.Rounds {
		t.Fatalf("pruning used more rounds (%d) than no pruning (%d)", pruned.Rounds, plain.Rounds)
	}
}

// TestZeroOneWeightsUseWeightedSubstrate: a weighted graph mixing weight-0
// and weight-1 edges has MaxWeight 1, but hop counting is still wrong for
// it — HopDist's engine choice must key on unit weights, not the maximum.
// Regression for a bug the portfolio conformance harness caught: the
// zero-weight fuzz shape with maxW=1 returned hop counts as cycle weights.
func TestZeroOneWeightsUseWeightedSubstrate(t *testing.T) {
	// Square of weight-1 edges with a zero-weight diagonal: the true MWC is
	// the triangle 0-1-2 of weight 0+1+1 = 2; hop counting would report 3.
	g := graph.MustBuild(4, []graph.Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 1, To: 2, Weight: 1},
		{From: 2, To: 3, Weight: 1},
		{From: 3, To: 0, Weight: 1},
		{From: 0, To: 2, Weight: 0},
	}, graph.Options{Weighted: true})
	ref, ok := seq.MWC(g)
	if !ok || ref != 2 {
		t.Fatalf("reference = (%d, %v), want (2, true)", ref, ok)
	}
	res, err := MWC(newNet(t, g, 1), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Weight != ref {
		t.Fatalf("got (%d, %v), want (%d, true)", res.Weight, res.Found, ref)
	}
}
