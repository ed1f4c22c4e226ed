package exact

import (
	"slices"
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

func TestMWCMatchesSeqAcrossClasses(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, directed := range []bool{false, true} {
			for _, weighted := range []bool{false, true} {
				g, err := (gen.Random{
					N: 30, P: 0.08, Directed: directed, Weighted: weighted,
					MaxW: 9, Seed: seed,
				}).Graph()
				if err != nil {
					t.Fatal(err)
				}
				want, ok := seq.MWC(g)
				res, err := MWC(newNet(t, g, seed+5), Spec{})
				if err != nil {
					t.Fatal(err)
				}
				// The paper schedule's separate exchange delivers the same
				// rows, so the same witness.
				paper, err := MWC(newNet(t, g, seed+5), Spec{PaperSchedule: true})
				if err != nil {
					t.Fatal(err)
				}
				if paper.Weight != res.Weight || paper.Found != res.Found || !slices.Equal(paper.Cycle, res.Cycle) {
					t.Errorf("seed %d dir=%v w=%v: paper schedule (%d,%v,%v), default (%d,%v,%v)", seed, directed, weighted,
						paper.Weight, paper.Found, paper.Cycle, res.Weight, res.Found, res.Cycle)
				}
				if !directed && res.Rounds >= paper.Rounds {
					t.Errorf("seed %d w=%v: default %d rounds, paper schedule %d", seed, weighted, res.Rounds, paper.Rounds)
				}
				if res.Found != ok || (ok && res.Weight != want) {
					t.Errorf("seed %d dir=%v w=%v: got (%d,%v), want (%d,%v)",
						seed, directed, weighted, res.Weight, res.Found, want, ok)
				}
				if res.Found {
					w, err := seq.VerifyCycle(g, res.Cycle)
					if err != nil {
						t.Errorf("seed %d dir=%v w=%v: witness invalid: %v", seed, directed, weighted, err)
					} else if w != res.Weight {
						t.Errorf("seed %d dir=%v w=%v: witness weight %d != reported %d",
							seed, directed, weighted, w, res.Weight)
					}
				}
			}
		}
	}
}

func TestMWCAcyclic(t *testing.T) {
	dag := graph.MustBuild(5, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
	}, graph.Options{Directed: true})
	res, err := MWC(newNet(t, dag, 1), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Errorf("found cycle %d in a DAG", res.Weight)
	}
	tree := gen.Path(7)
	res2, err := MWC(newNet(t, tree, 1), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Found {
		t.Errorf("found cycle %d in a tree", res2.Weight)
	}
}

func TestMWCPlanted(t *testing.T) {
	for _, directed := range []bool{false, true} {
		p := gen.PlantedCycle{
			N: 40, CycleLen: 5, CycleW: 33, Directed: directed,
			Weighted: true, BackgroundDeg: 2, Seed: 7,
		}
		g, want, err := p.Graph()
		if err != nil {
			t.Fatal(err)
		}
		res, err := MWC(newNet(t, g, 2), Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Weight != want {
			t.Errorf("directed=%v: got (%d,%v), want (%d,true)", directed, res.Weight, res.Found, want)
		}
	}
}

func TestGirthExactOnRings(t *testing.T) {
	for _, n := range []int{4, 7, 12} {
		g := gen.Ring(n, false, false, 1)
		res, err := MWC(newNet(t, g, int64(n)), Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Weight != int64(n) {
			t.Errorf("ring %d: got (%d,%v)", n, res.Weight, res.Found)
		}
	}
}

func TestMWCRoundsNearLinearUnweighted(t *testing.T) {
	// n-source pipelined BFS should finish in O(n + D) rounds up to a
	// modest constant, not O(n*D).
	g, err := (gen.Random{N: 120, P: 0.04, Seed: 3}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g, 9)
	res, err := MWC(net, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("expected a cycle")
	}
	if res.Rounds > 20*g.N() {
		t.Errorf("exact MWC took %d rounds on n=%d; expected O(n)", res.Rounds, g.N())
	}
	t.Logf("n=%d rounds=%d", g.N(), res.Rounds)
}
