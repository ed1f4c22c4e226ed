package wmwc

import (
	"fmt"
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

func TestRunValidation(t *testing.T) {
	unw := gen.Ring(5, false, false, 1)
	if _, err := Run(newNet(t, unw, 1), Spec{Eps: 0.5}); err == nil {
		t.Error("unweighted graph should be rejected")
	}
	w := gen.Ring(5, false, true, 2)
	if _, err := Run(newNet(t, w, 1), Spec{}); err == nil {
		t.Error("missing eps should be rejected")
	}
	zero := graph.MustBuild(3, []graph.Edge{
		{From: 0, To: 1, Weight: 0}, {From: 1, To: 2, Weight: 1}, {From: 0, To: 2, Weight: 1},
	}, graph.Options{Weighted: true})
	if _, err := Run(newNet(t, zero, 1), Spec{Eps: 0.5}); err == nil {
		t.Error("zero-weight edge should be rejected")
	}
}

func TestRunUndirectedWeightedRing(t *testing.T) {
	g := gen.Ring(10, false, true, 7) // unique cycle, weight 70
	net := newNet(t, g, 3)
	res, err := Run(net, Spec{Eps: 0.5, SampleFactor: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Weight < 70 || float64(res.Weight) > 2.5*70 {
		t.Errorf("got (%d,%v), want within [70,175]", res.Weight, res.Found)
	}
}

func TestRunDirectedWeightedRing(t *testing.T) {
	g := gen.Ring(8, true, true, 5) // unique cycle, weight 40
	net := newNet(t, g, 4)
	res, err := Run(net, Spec{Eps: 0.5, SampleFactor: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Weight < 40 || float64(res.Weight) > 2.5*40 {
		t.Errorf("got (%d,%v), want within [40,100]", res.Weight, res.Found)
	}
}

func TestRunUndirectedRandom(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g, err := (gen.Random{N: 40, P: 0.07, Weighted: true, MaxW: 12, Seed: seed}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := seq.MWC(g)
		net := newNet(t, g, seed+9)
		res, err := Run(net, Spec{Eps: 0.5, SampleFactor: 4})
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
			t.Errorf("seed %d: missed MWC %d", seed, want)
			continue
		}
		if res.Weight < want {
			t.Errorf("seed %d: reported %d below MWC %d (unsound)", seed, res.Weight, want)
		}
		if float64(res.Weight) > 2.5*float64(want)+2 {
			t.Errorf("seed %d: reported %d above (2+eps)*MWC for MWC %d", seed, res.Weight, want)
		}
	}
}

func TestRunDirectedRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, err := (gen.Random{N: 35, P: 0.06, Directed: true, Weighted: true,
			MaxW: 10, Seed: seed}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := seq.MWC(g)
		if !ok {
			continue // backbone guarantees cycles, but be safe
		}
		net := newNet(t, g, seed+40)
		res, err := Run(net, Spec{Eps: 0.5, SampleFactor: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Errorf("seed %d: missed MWC %d", seed, want)
			continue
		}
		if res.Weight < want {
			t.Errorf("seed %d: reported %d below MWC %d (unsound)", seed, res.Weight, want)
		}
		if float64(res.Weight) > 2.5*float64(want)+2 {
			t.Errorf("seed %d: reported %d above (2+eps)*MWC for MWC %d", seed, res.Weight, want)
		}
	}
}

func TestRunPlantedWeighted(t *testing.T) {
	for _, directed := range []bool{false, true} {
		p := gen.PlantedCycle{
			N: 50, CycleLen: 5, CycleW: 60, Directed: directed,
			Weighted: true, BackgroundDeg: 1, Seed: 8,
		}
		g, want, err := p.Graph()
		if err != nil {
			t.Fatal(err)
		}
		net := newNet(t, g, 21)
		res, err := Run(net, Spec{Eps: 0.5, SampleFactor: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Weight < want || float64(res.Weight) > 2.5*float64(want)+2 {
			t.Errorf("directed=%v: got (%d,%v), want within [%d,%d]",
				directed, res.Weight, res.Found, want, int(2.5*float64(want))+2)
		}
	}
}

func TestRunLargeWeights(t *testing.T) {
	// Scaling must cope with weights far above n.
	g := gen.Ring(6, false, true, 10_000)
	net := newNet(t, g, 13)
	res, err := Run(net, Spec{Eps: 0.25, SampleFactor: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(60_000)
	if !res.Found || res.Weight < want || float64(res.Weight) > 2.25*float64(want)+10 {
		t.Errorf("got (%d,%v), want within [%d, %d]", res.Weight, res.Found, want, int64(2.25*float64(want))+10)
	}
	// The stretched simulation must NOT cost ~weight rounds: scaling keeps
	// rounds polynomial in n, not W.
	if res.Rounds > 50_000 {
		t.Errorf("rounds = %d; scaling should keep rounds independent of W", res.Rounds)
	}
}

func TestRunSoundnessNeverUndercuts(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, err := (gen.Random{N: 25, P: 0.1, Weighted: true, MaxW: 9, Seed: seed + 70}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := seq.MWC(g)
		net := newNet(t, g, seed)
		res, err := Run(net, Spec{Eps: 1.0, SampleFactor: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found && ok && res.Weight < want {
			t.Errorf("seed %d: reported %d < MWC %d", seed, res.Weight, want)
		}
		if res.Found && !ok {
			t.Errorf("seed %d: found cycle in forest", seed)
		}
	}
}

func TestResultInstrumentationConsistent(t *testing.T) {
	g := gen.Ring(9, false, true, 6)
	net := newNet(t, g, 8)
	res, err := Run(net, Spec{Eps: 0.5, SampleFactor: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("ring cycle not found")
	}
	min := res.LongWeight
	if res.ShortWeight < min {
		min = res.ShortWeight
	}
	if res.Weight != min {
		t.Errorf("Weight %d != min(long %d, short %d)", res.Weight, res.LongWeight, res.ShortWeight)
	}
}

func TestRunWitnessValidWhenPresent(t *testing.T) {
	for _, directed := range []bool{false, true} {
		present := 0
		for seed := int64(0); seed < 8; seed++ {
			g, err := (gen.Random{N: 36, P: 0.08, Directed: directed, Weighted: true,
				MaxW: 9, Seed: seed + 500}).Graph()
			if err != nil {
				t.Fatal(err)
			}
			net := newNet(t, g, seed)
			res, err := Run(net, Spec{Eps: 0.5, SampleFactor: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Found || res.Cycle == nil {
				continue
			}
			present++
			w, err := seq.VerifyCycle(g, res.Cycle)
			if err != nil {
				t.Errorf("directed=%v seed %d: witness invalid: %v (%v)", directed, seed, err, res.Cycle)
				continue
			}
			if w > res.Weight {
				t.Errorf("directed=%v seed %d: witness weight %d exceeds reported %d",
					directed, seed, w, res.Weight)
			}
			if truth, ok := seq.MWC(g); ok && w < truth {
				t.Errorf("directed=%v seed %d: witness %d below MWC %d", directed, seed, w, truth)
			}
		}
		t.Logf("directed=%v: witnesses on %d/8 instances", directed, present)
		if present == 0 {
			t.Errorf("directed=%v: no witnesses materialised", directed)
		}
	}
}

func TestRunHopThresholdOverride(t *testing.T) {
	g, err := (gen.Random{N: 30, P: 0.1, Weighted: true, MaxW: 8, Seed: 6}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := seq.MWC(g)
	if !ok {
		t.Fatal("instance should be cyclic")
	}
	for _, h := range []int{2, 8, 30} {
		res, err := Run(newNet(t, g, int64(h)), Spec{Eps: 0.5, H: h, SampleFactor: 4})
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		if !res.Found || res.Weight < want || float64(res.Weight) > 2.5*float64(want)+2 {
			t.Errorf("h=%d: got (%d,%v) for MWC %d", h, res.Weight, res.Found, want)
		}
	}
}

// TestAdaptiveScheduleMatchesPaper sweeps both weighted classes: the
// adaptive schedule must return the paper schedule's weight and Found, a
// valid witness exactly when the paper run has one, and never cost more
// rounds or messages.
func TestAdaptiveScheduleMatchesPaper(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, n := range []int{16, 24} {
			for _, maxW := range []int64{16, 1024} {
				for seed := int64(0); seed < 4; seed++ {
					g, err := (gen.Random{N: n, P: 4 / float64(n), Directed: directed,
						Weighted: true, MaxW: maxW, Seed: seed}).Graph()
					if err != nil {
						t.Fatal(err)
					}
					paperNet, adaptNet := newNet(t, g, seed), newNet(t, g, seed)
					paper, err := Run(paperNet, Spec{Eps: 0.5, PaperSchedule: true})
					if err != nil {
						t.Fatal(err)
					}
					adapt, err := Run(adaptNet, Spec{Eps: 0.5})
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("directed=%v n=%d maxW=%d seed=%d", directed, n, maxW, seed)
					if adapt.Weight != paper.Weight || adapt.Found != paper.Found {
						t.Errorf("%s: adaptive (%d,%v), paper (%d,%v)", name,
							adapt.Weight, adapt.Found, paper.Weight, paper.Found)
					}
					if (adapt.Cycle == nil) != (paper.Cycle == nil) {
						t.Errorf("%s: adaptive witness %v, paper witness %v", name, adapt.Cycle, paper.Cycle)
					}
					if adapt.Cycle != nil {
						if w, err := seq.VerifyCycle(g, adapt.Cycle); err != nil || w > adapt.Weight {
							t.Errorf("%s: witness %v invalid (weight %d, err %v)", name, adapt.Cycle, w, err)
						}
					}
					if adapt.Rounds > paper.Rounds {
						t.Errorf("%s: adaptive %d rounds > paper %d", name, adapt.Rounds, paper.Rounds)
					}
					if a, p := adaptNet.Stats().Messages, paperNet.Stats().Messages; a > p {
						t.Errorf("%s: adaptive %d messages > paper %d", name, a, p)
					}
				}
			}
		}
	}
}

// TestShortLevelSkippedIffCapped checks the cut-off level by level: under
// the adaptive schedule level i runs if and only if 2^(i-1) < U, the
// minimum of the levels before it, and the paper schedule runs them all.
func TestShortLevelSkippedIffCapped(t *testing.T) {
	const h, eps, factor = 6, 0.5, 3.0
	skipped := 0
	for _, directed := range []bool{false, true} {
		for seed := int64(0); seed < 4; seed++ {
			g, err := (gen.Random{N: 20, P: 0.2, Directed: directed, Weighted: true,
				MaxW: 64, Seed: seed}).Graph()
			if err != nil {
				t.Fatal(err)
			}
			sc, err := graph.NewScaling(h, eps/4, g.MaxWeight())
			if err != nil {
				t.Fatal(err)
			}
			for _, paper := range []bool{false, true} {
				var ran []int64 // estimate per level run, level i at index i-1
				short, _, err := shortCycles(newNet(t, g, seed), Spec{Eps: eps, PaperSchedule: paper},
					h, factor, eps/4, func(level int, est int64) {
						if level != len(ran)+1 {
							t.Fatalf("level %d ran after %d levels", level, len(ran))
						}
						ran = append(ran, est)
					})
				if err != nil {
					t.Fatal(err)
				}
				u := seq.Inf
				for i := 1; i <= sc.Levels(); i++ {
					want := paper || int64(1)<<(i-1) < u
					if got := i <= len(ran); got != want {
						t.Errorf("directed=%v seed=%d paper=%v: level %d ran=%v, want %v (U=%d)",
							directed, seed, paper, i, got, want, u)
					}
					if i > len(ran) {
						skipped++
						continue
					}
					if ran[i-1] < u {
						u = ran[i-1]
					}
				}
				if u != short {
					t.Errorf("directed=%v seed=%d paper=%v: short %d, level minimum %d", directed, seed, paper, short, u)
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("no level was skipped on any instance")
	}
}
