package girthapx

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

func TestRatioAndSoundness(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		name := "ud"
		if weighted {
			name = "uw"
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				g, err := (gen.Random{
					N: 36, P: 0.1, Weighted: weighted, MaxW: 9, Seed: seed,
				}).Graph()
				if err != nil {
					t.Fatal(err)
				}
				ref, refFound := seq.MWC(g)
				res, err := Run(newNet(t, g, seed+30), Spec{SampleFactor: 4})
				if err != nil {
					t.Fatal(err)
				}
				if !refFound {
					if res.Found {
						t.Fatalf("seed %d: found %d in acyclic graph", seed, res.Weight)
					}
					continue
				}
				if !res.Found {
					t.Fatalf("seed %d: cycle of weight %d missed", seed, ref)
				}
				if res.Weight < ref {
					t.Fatalf("seed %d: weight %d undercuts true MWC %d", seed, res.Weight, ref)
				}
				if res.Weight > 2*ref {
					t.Fatalf("seed %d: weight %d exceeds 2 * %d", seed, res.Weight, ref)
				}
				if res.Cycle != nil {
					w, err := seq.VerifyCycle(g, res.Cycle)
					if err != nil {
						t.Fatalf("seed %d: bad witness: %v", seed, err)
					}
					if w > res.Weight {
						t.Fatalf("seed %d: witness weight %d exceeds reported %d", seed, w, res.Weight)
					}
				}
			}
		})
	}
}

func TestRingExact(t *testing.T) {
	// A single cycle sits inside every vertex's sigma-neighbourhood only
	// when short; either phase must still report a sound weight, and for a
	// plain ring the only cycle is the whole ring.
	g := gen.Ring(12, false, true, 3)
	res, err := Run(newNet(t, g, 2), Spec{SampleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("ring cycle missed")
	}
	want := int64(12 * 3)
	if res.Weight < want || res.Weight > 2*want {
		t.Fatalf("weight %d outside [%d, %d]", res.Weight, want, 2*want)
	}
}

func TestAcyclicFindsNothing(t *testing.T) {
	res, err := Run(newNet(t, gen.Path(15), 3), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("found %d in an acyclic graph", res.Weight)
	}
}

func TestRejectsDirected(t *testing.T) {
	g, err := (gen.Random{N: 10, P: 0.3, Directed: true, Seed: 1}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(newNet(t, g, 1), Spec{}); err == nil {
		t.Fatal("directed graph accepted")
	}
}

func TestRejectsZeroWeights(t *testing.T) {
	g := graph.MustBuild(4, []graph.Edge{
		{From: 0, To: 1, Weight: 0}, {From: 1, To: 2, Weight: 2},
		{From: 2, To: 3, Weight: 2}, {From: 3, To: 0, Weight: 2},
	}, graph.Options{Weighted: true})
	if _, err := Run(newNet(t, g, 1), Spec{}); err == nil {
		t.Fatal("zero-weight edge accepted")
	}
}

func TestPlantedShortCycleFound(t *testing.T) {
	g, planted, err := (gen.PlantedCycle{
		N: 40, CycleLen: 4, CycleW: 4, Weighted: true, BackgroundDeg: 2, Seed: 5,
	}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := seq.MWC(g)
	res, err := Run(newNet(t, g, 5), Spec{SampleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Weight > 2*ref {
		t.Fatalf("planted cycle (weight %d, ref %d): got (%d,%v)", planted, ref, res.Weight, res.Found)
	}
}
