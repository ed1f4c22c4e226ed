package girth

import (
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
	"congestmwc/internal/proto"
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

func TestRunRejectsDirected(t *testing.T) {
	g := gen.Ring(5, true, false, 1)
	net := newNet(t, g, 1)
	if _, err := Run(net, Spec{}); err == nil {
		t.Error("directed graph should be rejected")
	}
}

func TestRunOnTreeFindsNothing(t *testing.T) {
	g := gen.Path(12)
	net := newNet(t, g, 1)
	res, err := Run(net, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("found cycle of weight %d in a tree", res.Weight)
	}
}

func TestRunExactOnRing(t *testing.T) {
	for _, n := range []int{5, 8, 13, 20} {
		g := gen.Ring(n, false, false, 1)
		net := newNet(t, g, int64(n))
		res, err := Run(net, Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Weight != int64(n) {
			t.Errorf("ring %d: got (%d,%v), want (%d,true)", n, res.Weight, res.Found, n)
		}
	}
}

func TestRunApproxOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, err := (gen.Random{N: 60, P: 0.05, Seed: seed}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := seq.Girth(g)
		net := newNet(t, g, seed*3+1)
		res, err := Run(net, Spec{SampleFactor: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if res.Found {
				t.Errorf("seed %d: found cycle in acyclic graph", seed)
			}
			continue
		}
		if !res.Found {
			t.Errorf("seed %d: missed girth %d", seed, want)
			continue
		}
		if res.Weight < want {
			t.Errorf("seed %d: reported %d below girth %d (unsound)", seed, res.Weight, want)
		}
		if res.Weight > 2*want-1 {
			t.Errorf("seed %d: reported %d above (2-1/g) bound for girth %d", seed, res.Weight, want)
		}
	}
}

func TestRunApproxOnPlantedCycle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		p := gen.PlantedCycle{N: 80, CycleLen: 9, Seed: seed}
		g, want, err := p.Graph()
		if err != nil {
			t.Fatal(err)
		}
		net := newNet(t, g, seed+50)
		res, err := Run(net, Spec{SampleFactor: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Weight < want || res.Weight > 2*want-1 {
			t.Errorf("seed %d: got (%d,%v), want within [%d,%d]",
				seed, res.Weight, res.Found, want, 2*want-1)
		}
	}
}

func TestRunHopLimited(t *testing.T) {
	// Planted 4-cycle in a larger sparse graph: with Bound below 4 it must
	// not be reported; with Bound >= its approx value it must be found.
	p := gen.PlantedCycle{N: 50, CycleLen: 4, Seed: 3}
	g, want, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g, 77)
	res, err := Run(net, Spec{Bound: 3, SampleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("Bound=3 reported cycle %d; planted girth is 4", res.Weight)
	}
	net2 := newNet(t, g, 78)
	res2, err := Run(net2, Spec{Bound: 2*want - 1, SampleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Found || res2.Weight < want || res2.Weight > 2*want-1 {
		t.Errorf("Bound=%d: got (%d,%v), want within [%d,%d]",
			2*want-1, res2.Weight, res2.Found, want, 2*want-1)
	}
}

func TestRunWeightedLengths(t *testing.T) {
	// Weighted ring simulated as a stretched graph: the unique cycle has
	// weight = sum of lengths.
	g := gen.Ring(6, false, true, 3) // weight 18
	net := newNet(t, g, 5)
	res, err := Run(net, Spec{
		Length: func(a graph.Arc) int64 { return a.Weight },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Weight != 18 {
		t.Errorf("weighted ring: got (%d,%v), want (18,true)", res.Weight, res.Found)
	}
	if res.Rounds < 9 {
		t.Errorf("stretched simulation took %d rounds, expected >= weight/2", res.Rounds)
	}
}

func TestRunSoundnessNeverUndercuts(t *testing.T) {
	// Across many random instances the reported weight must never be below
	// the true girth (soundness is unconditional, not probabilistic).
	for seed := int64(0); seed < 20; seed++ {
		g, err := (gen.Random{N: 30, P: 0.09, Seed: seed + 100}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := seq.Girth(g)
		net := newNet(t, g, seed)
		res, err := Run(net, Spec{SampleFactor: 1}) // deliberately weak sampling
		if err != nil {
			t.Fatal(err)
		}
		if res.Found && ok && res.Weight < want {
			t.Errorf("seed %d: reported %d < girth %d", seed, res.Weight, want)
		}
		if res.Found && !ok {
			t.Errorf("seed %d: found cycle in acyclic graph", seed)
		}
	}
}

func TestRunRoundsScaleSublinearly(t *testing.T) {
	// Not a proof, just a smoke check: rounds on a 200-node sparse graph
	// should be well below the ~n rounds an APSP-based exact algorithm
	// needs.
	g, err := (gen.Random{N: 200, P: 0.015, Seed: 1}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g, 4)
	res, err := Run(net, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("dense-enough random graph must contain a cycle")
	}
	t.Logf("n=200: %d rounds", res.Rounds)
}

func TestTopSigmaSetsOrderAndSize(t *testing.T) {
	g := gen.Path(8)
	net := newNet(t, g, 3)
	all := make([]int, 8)
	for i := range all {
		all[i] = i
	}
	res, err := proto.RunMultiBFS(net, proto.MultiBFSSpec{Sources: all, Dir: proto.Undirected})
	if err != nil {
		t.Fatal(err)
	}
	sets := proto.TopSigmaSets(res, 3)
	for v, set := range sets {
		if len(set) > 3 {
			t.Errorf("vertex %d: set size %d > sigma", v, len(set))
		}
		// Entries must be the nearest vertices: all within distance 2 on a
		// path (self, and the 1-2 nearest neighbours).
		for _, u := range set {
			d := v - u
			if d < 0 {
				d = -d
			}
			if d > 2 {
				t.Errorf("vertex %d: set contains far vertex %d", v, u)
			}
		}
	}
}

func TestRunPRTRejectsDirected(t *testing.T) {
	g := gen.Ring(5, true, false, 1)
	if _, err := RunPRT(newNet(t, g, 1), Spec{}); err == nil {
		t.Error("directed graph should be rejected")
	}
}

func TestRunPRTOnRings(t *testing.T) {
	for _, n := range []int{5, 12, 24} {
		g := gen.Ring(n, false, false, 1)
		net := newNet(t, g, int64(n)+3)
		res, err := RunPRT(net, Spec{SampleFactor: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Weight < int64(n) || res.Weight > 2*int64(n) {
			t.Errorf("ring %d: got (%d,%v), want within [%d,%d]", n, res.Weight, res.Found, n, 2*n)
		}
	}
}

func TestRunPRTApproxAndSound(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g, err := (gen.Random{N: 60, P: 0.05, Seed: seed + 200}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := seq.Girth(g)
		net := newNet(t, g, seed)
		res, err := RunPRT(net, Spec{SampleFactor: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if res.Found {
				t.Errorf("seed %d: found cycle in forest", seed)
			}
			continue
		}
		if !res.Found {
			t.Errorf("seed %d: missed girth %d", seed, want)
			continue
		}
		if res.Weight < want || res.Weight > 2*want {
			t.Errorf("seed %d: got %d for girth %d", seed, res.Weight, want)
		}
	}
}

func TestRunPRTOnTree(t *testing.T) {
	g := gen.Path(20)
	res, err := RunPRT(newNet(t, g, 2), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("found cycle %d in a tree", res.Weight)
	}
}

func TestRunWitnessValidWhenPresent(t *testing.T) {
	valid, present := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		g, err := (gen.Random{N: 50, P: 0.07, Seed: seed + 300}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		net := newNet(t, g, seed)
		res, err := Run(net, Spec{SampleFactor: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Cycle == nil {
			continue
		}
		present++
		w, err := seq.VerifyCycle(g, res.Cycle)
		if err != nil {
			t.Errorf("seed %d: witness invalid: %v (cycle %v)", seed, err, res.Cycle)
			continue
		}
		if w > res.Weight {
			t.Errorf("seed %d: witness weight %d exceeds reported %d", seed, w, res.Weight)
			continue
		}
		if truth, ok := seq.Girth(g); ok && w < truth {
			t.Errorf("seed %d: witness weight %d below girth %d (impossible)", seed, w, truth)
		}
		valid++
	}
	if present == 0 {
		t.Fatal("no witnesses materialised across 12 instances")
	}
	if valid != present {
		t.Errorf("%d of %d witnesses invalid", present-valid, present)
	}
	t.Logf("witnesses materialised on %d/12 instances", present)
}

func TestRunSigmaOverride(t *testing.T) {
	// A tiny sigma cripples the neighbourhood phase but must stay sound.
	g, err := (gen.Random{N: 40, P: 0.08, Seed: 4}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := seq.Girth(g)
	if !ok {
		t.Fatal("instance should be cyclic")
	}
	res, err := Run(newNet(t, g, 2), Spec{Sigma: 2, SampleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found && res.Weight < want {
		t.Errorf("sigma=2: unsound %d < %d", res.Weight, want)
	}
	if !res.Found || res.Weight > 2*want {
		t.Errorf("sigma=2: got (%d,%v), want within [%d,%d] (sampled phase must cover)",
			res.Weight, res.Found, want, 2*want)
	}
}
