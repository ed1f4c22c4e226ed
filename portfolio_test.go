package congestmwc

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"congestmwc/internal/gen"
	"congestmwc/internal/seq"
)

func TestPortfolioRegistryShape(t *testing.T) {
	names := AlgorithmNames()
	want := []string{AlgoNameAgarwal, AlgoNameApprox, AlgoNameExact, AlgoNameGirthApx}
	if len(names) != len(want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registered %v, want %v", names, want)
		}
	}
	for _, a := range Portfolio() {
		if a.Description == "" || len(a.Classes) == 0 || a.Ratio == nil || a.Bound == nil ||
			a.RoundCeiling == nil || a.EstimateRounds == nil || a.RunNetwork == nil {
			t.Fatalf("incomplete registry entry %q", a.Name)
		}
		for _, c := range a.Classes {
			r := a.Ratio(c, 0)
			if r < 1 {
				t.Fatalf("%q registers ratio %v < 1 on %s", a.Name, r, c)
			}
			if a.Exact && r != 1 {
				t.Fatalf("%q is marked exact but registers ratio %v on %s", a.Name, r, c)
			}
			if est := a.EstimateRounds(c, 64, 256, 8, 0); !(est > 0) || math.IsInf(est, 0) {
				t.Fatalf("%q estimates %v rounds on %s", a.Name, est, c)
			}
		}
	}
	if _, ok := AlgorithmByName("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

// TestRunAlgorithmDispatch runs every registry entry on every class it
// serves and checks the answer against the registered ratio and the
// reference solver; exact entries must match bit for bit, witnesses must
// verify.
func TestRunAlgorithmDispatch(t *testing.T) {
	type classGen struct {
		class    Class
		directed bool
		weighted bool
	}
	gens := []classGen{
		{Undirected, false, false},
		{Directed, true, false},
		{UndirectedWeighted, false, true},
		{DirectedWeighted, true, true},
	}
	for _, a := range Portfolio() {
		for _, cg := range gens {
			if !a.ServesClass(cg.class) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", a.Name, cg.class), func(t *testing.T) {
				gg, err := (gen.Random{N: 28, P: 0.15, Directed: cg.directed, Weighted: cg.weighted, MaxW: 7, Seed: 11}).Graph()
				if err != nil {
					t.Fatal(err)
				}
				g := &Graph{g: gg, class: cg.class}
				ref, refFound := seq.MWC(gg)
				res, err := RunAlgorithm(a.Name, g, Options{Seed: 4})
				if err != nil {
					t.Fatal(err)
				}
				if !refFound {
					if res.Found {
						t.Fatalf("found %d in acyclic graph", res.Weight)
					}
					return
				}
				if !res.Found {
					t.Fatalf("cycle of weight %d missed", ref)
				}
				bound := int64(math.Ceil(a.Ratio(cg.class, 0) * float64(ref)))
				if res.Weight < ref || res.Weight > bound {
					t.Fatalf("weight %d outside [%d, %d]", res.Weight, ref, bound)
				}
				if a.Exact && res.Weight != ref {
					t.Fatalf("exact entry returned %d, reference %d", res.Weight, ref)
				}
				if res.Cycle != nil {
					w, err := seq.VerifyCycle(gg, res.Cycle)
					if err != nil {
						t.Fatalf("bad witness: %v", err)
					}
					if w != res.Weight {
						t.Fatalf("witness weight %d, reported %d", w, res.Weight)
					}
				}
				if res.Rounds <= 0 || res.Messages <= 0 {
					t.Fatalf("implausible stats: %d rounds, %d messages", res.Rounds, res.Messages)
				}
			})
		}
	}
}

func TestRunAlgorithmErrors(t *testing.T) {
	gg, err := (gen.Random{N: 10, P: 0.3, Directed: true, Seed: 1}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	g := &Graph{g: gg, class: Directed}
	if _, err := RunAlgorithm("nope", g, Options{}); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("unknown name: %v", err)
	}
	if _, err := RunAlgorithm(AlgoNameGirthApx, g, Options{}); err == nil || !strings.Contains(err.Error(), "does not serve") {
		t.Fatalf("class mismatch: %v", err)
	}
	if _, err := RunAlgorithm(AlgoNameAgarwal, g, Options{Bandwidth: -1}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestAgarwalMWCCancellation(t *testing.T) {
	gg, err := (gen.Random{N: 40, P: 0.1, Weighted: true, MaxW: 9, Seed: 3}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	g := &Graph{g: gg, class: UndirectedWeighted}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunAlgorithmCtx(ctx, AlgoNameAgarwal, g, Options{Seed: 3})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if res == nil {
		t.Fatal("expected a partial-progress result on cancellation")
	}
	if res.Found {
		t.Fatalf("cancelled run reported a result: %+v", res)
	}
}
