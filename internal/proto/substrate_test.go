package proto

import (
	"testing"

	"congestmwc/internal/gen"
	"congestmwc/internal/seq"
)

func TestDefaultSubstrate(t *testing.T) {
	if s := DefaultSubstrate(false, 0); s.Name() != "bfs" {
		t.Errorf("unweighted default = %q, want bfs", s.Name())
	}
	if s := DefaultSubstrate(true, 0.25); s.Name() != "scaled" {
		t.Errorf("weighted eps default = %q, want scaled", s.Name())
	}
	if s := DefaultSubstrate(true, 0); s.Name() != "bellman-ford" {
		t.Errorf("weighted exact default = %q, want bellman-ford", s.Name())
	}
}

func TestBFSAndBellmanFordAgreeUnweighted(t *testing.T) {
	g, err := (gen.Random{N: 40, P: 0.1, Seed: 5}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 3, 17}
	spec := HopDistSpec{Sources: sources, Dir: Undirected}
	a, err := BFSSubstrate{}.Run(newNet(t, g), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BellmanFordSubstrate{}.Run(newNet(t, g), spec)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for i := range sources {
			if a.Dist[v][i] != b.Dist[v][i] {
				t.Fatalf("dist[%d][%d]: bfs %d vs bellman-ford %d", v, i, a.Dist[v][i], b.Dist[v][i])
			}
		}
	}
}

func TestBellmanFordExactWeighted(t *testing.T) {
	g, err := (gen.Random{N: 36, P: 0.12, Weighted: true, MaxW: 9, Seed: 8}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{2, 11}
	res, err := BellmanFordSubstrate{}.Run(newNet(t, g), HopDistSpec{Sources: sources, Dir: Undirected})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		want := seq.Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			if res.Dist[v][i] != want[v] {
				t.Fatalf("dist[%d] from %d = %d, want %d", v, s, res.Dist[v][i], want[v])
			}
		}
	}
}

func TestBellmanFordWeightBoundPrunes(t *testing.T) {
	g, err := (gen.Random{N: 36, P: 0.12, Weighted: true, MaxW: 9, Seed: 8}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	const bound = 12
	res, err := BellmanFordSubstrate{}.Run(newNet(t, g), HopDistSpec{
		Sources: []int{2}, Dir: Undirected, Bound: bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Dijkstra(g, 2)
	for v := 0; v < g.N(); v++ {
		switch {
		case want[v] <= bound && res.Dist[v][0] != want[v]:
			t.Fatalf("dist[%d] = %d, want %d (within bound)", v, res.Dist[v][0], want[v])
		case want[v] > bound && res.Dist[v][0] < seq.Inf:
			t.Fatalf("dist[%d] = %d survived bound %d (true %d)", v, res.Dist[v][0], bound, want[v])
		}
	}
}

func TestScaledSubstrateRatioAndBound(t *testing.T) {
	g, err := (gen.Random{N: 36, P: 0.12, Weighted: true, MaxW: 9, Seed: 4}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.5
	res, err := ScaledSubstrate{}.Run(newNet(t, g), HopDistSpec{
		Sources: []int{0}, Dir: Undirected, Eps: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Dijkstra(g, 0)
	for v := 0; v < g.N(); v++ {
		d := res.Dist[v][0]
		if want[v] >= seq.Inf {
			if d < seq.Inf {
				t.Fatalf("dist[%d] = %d for unreachable node", v, d)
			}
			continue
		}
		if d < want[v] {
			t.Fatalf("dist[%d] = %d below true %d", v, d, want[v])
		}
		if float64(d) > (1+eps)*float64(want[v])+1 {
			t.Fatalf("dist[%d] = %d exceeds (1+eps) * %d", v, d, want[v])
		}
	}
	bounded, err := ScaledSubstrate{}.Run(newNet(t, g), HopDistSpec{
		Sources: []int{0}, Dir: Undirected, Eps: eps, Bound: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if d := bounded.Dist[v][0]; d > 5 && d < seq.Inf {
			t.Fatalf("bounded dist[%d] = %d survived bound 5", v, d)
		}
	}
}

func TestSubstrateClassGuards(t *testing.T) {
	wg, err := (gen.Random{N: 12, P: 0.3, Weighted: true, MaxW: 9, Seed: 1}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (BFSSubstrate{}).Run(newNet(t, wg), HopDistSpec{Sources: []int{0}, Dir: Undirected}); err == nil {
		t.Error("bfs substrate accepted a weighted graph")
	}
	ug, err := (gen.Random{N: 12, P: 0.3, Seed: 1}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (ScaledSubstrate{}).Run(newNet(t, ug), HopDistSpec{Sources: []int{0}, Dir: Undirected}); err == nil {
		t.Error("scaled substrate accepted eps = 0")
	}
	if (BFSSubstrate{}).Supports(true) || !(BFSSubstrate{}).Supports(false) {
		t.Error("bfs Supports wrong")
	}
	if !(BellmanFordSubstrate{}).Supports(true) || !(BellmanFordSubstrate{}).Supports(false) {
		t.Error("bellman-ford Supports wrong")
	}
	if !(ScaledSubstrate{}).Supports(true) || (ScaledSubstrate{}).Supports(false) {
		t.Error("scaled Supports wrong")
	}
}

func TestScaledSubstrateBoundSkipsLevels(t *testing.T) {
	g, err := (gen.Random{N: 36, P: 0.12, Weighted: true, MaxW: 9, Seed: 4}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	spec := HopDistSpec{Sources: []int{0, 5}, Dir: Undirected, Eps: 0.5}
	full, err := ScaledSubstrate{}.Run(newNet(t, g), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Bound = 6
	capped, err := ScaledSubstrate{}.Run(newNet(t, g), spec)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Rounds >= full.Rounds {
		t.Errorf("bounded run took %d rounds, unbounded %d: no level skipped", capped.Rounds, full.Rounds)
	}
	for v := range full.Dist {
		for i, d := range full.Dist[v] {
			want := d
			if d > spec.Bound {
				want = seq.Inf
			}
			if got := capped.Dist[v][i]; got != want {
				t.Fatalf("dist[%d][%d] = %d, want %d (unbounded %d, bound %d)", v, i, got, want, d, spec.Bound)
			}
		}
	}
}
