package ksssp

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

func TestRunExactDirectedBFS(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g, err := (gen.Random{N: 80, P: 0.05, Directed: true, Seed: seed}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		net := newNet(t, g, seed+100)
		sources := []int{0, 5, 17, 33, 52, 79}
		res, err := Run(net, Spec{Sources: sources})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sources {
			want := seq.BFS(g, s)
			for v := 0; v < g.N(); v++ {
				if res.Dist[v][i] != want[v] {
					t.Errorf("seed %d src %d v %d: dist %d, want %d",
						seed, s, v, res.Dist[v][i], want[v])
				}
			}
		}
	}
}

func TestRunExactSmallHopParameter(t *testing.T) {
	// Force a small h so the skeleton path (steps 3-6) is actually
	// exercised: distances longer than h hops must still come out exact.
	g, err := (gen.Random{N: 100, P: 0.004, Directed: true, Seed: 7}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g, 42)
	sources := []int{0, 50}
	res, err := Run(net, Spec{Sources: sources, H: 6, SampleFactor: 6})
	if err != nil {
		t.Fatal(err)
	}
	longPairs := 0
	for i, s := range sources {
		want := seq.BFS(g, s)
		for v := 0; v < g.N(); v++ {
			if want[v] > 6 && want[v] < seq.Inf {
				longPairs++
			}
			if res.Dist[v][i] != want[v] {
				t.Errorf("src %d v %d: dist %d, want %d (hops > h path)",
					s, v, res.Dist[v][i], want[v])
			}
		}
	}
	if longPairs == 0 {
		t.Fatal("test instance has no > h-hop pairs; skeleton path not exercised")
	}
}

func TestRunBackward(t *testing.T) {
	g, err := (gen.Random{N: 60, P: 0.05, Directed: true, Seed: 3}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g, 9)
	sources := []int{2, 31}
	res, err := Run(net, Spec{Sources: sources, Dir: proto.Backward, H: 8, SampleFactor: 6})
	if err != nil {
		t.Fatal(err)
	}
	rev := g.Reverse()
	for i, s := range sources {
		want := seq.BFS(rev, s)
		for v := 0; v < g.N(); v++ {
			if res.Dist[v][i] != want[v] {
				t.Errorf("src %d v %d: dist %d, want %d", s, v, res.Dist[v][i], want[v])
			}
		}
	}
}

func TestRunWeightedApprox(t *testing.T) {
	const eps = 0.5
	for seed := int64(0); seed < 3; seed++ {
		g, err := (gen.Random{N: 50, P: 0.06, Directed: true, Weighted: true,
			MaxW: 20, Seed: seed}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		net := newNet(t, g, seed)
		sources := []int{0, 10, 25}
		res, err := Run(net, Spec{Sources: sources, Eps: eps, SampleFactor: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sources {
			want := seq.Dijkstra(g, s)
			for v := 0; v < g.N(); v++ {
				got := res.Dist[v][i]
				if want[v] >= seq.Inf {
					if got < seq.Inf {
						t.Errorf("src %d v %d: got %d for unreachable", s, v, got)
					}
					continue
				}
				if got < want[v] {
					t.Errorf("src %d v %d: underestimate %d < %d", s, v, got, want[v])
				}
				// +2 absorbs the per-level integer rounding on tiny distances.
				if float64(got) > (1+eps)*float64(want[v])+2 {
					t.Errorf("src %d v %d: %d exceeds (1+eps)*%d", s, v, got, want[v])
				}
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	g := gen.Ring(6, true, false, 1)
	net := newNet(t, g, 1)
	if _, err := Run(net, Spec{}); err == nil {
		t.Error("no sources should fail")
	}
	if _, err := Run(net, Spec{Sources: []int{0}, Eps: 0.5}); err == nil {
		t.Error("eps on unweighted graph should fail")
	}
	wg := gen.Ring(6, true, true, 5)
	wnet := newNet(t, wg, 1)
	if _, err := Run(wnet, Spec{Sources: []int{0}}); err == nil {
		t.Error("weighted graph without eps should fail")
	}
}

func TestRunSequentialMatchesSeq(t *testing.T) {
	g, err := (gen.Random{N: 40, P: 0.08, Directed: true, Seed: 6}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g, 2)
	sources := []int{1, 20}
	res, err := RunSequential(net, Spec{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		want := seq.BFS(g, s)
		for v := 0; v < g.N(); v++ {
			if res.Dist[v][i] != want[v] {
				t.Errorf("src %d v %d: dist %d, want %d", s, v, res.Dist[v][i], want[v])
			}
		}
	}
}

func TestSampleDistAndSkelDistConsistent(t *testing.T) {
	g, err := (gen.Random{N: 70, P: 0.05, Directed: true, Seed: 11}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g, 31)
	res, err := Run(net, Spec{Sources: []int{0, 1}, H: 7, SampleFactor: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sampled) == 0 {
		t.Fatal("no sampled vertices")
	}
	// SampleDist must be exact h-hop-bounded distances; here just check it
	// never underestimates the true distance and is exact when within h.
	for j, s := range res.Sampled {
		want := seq.BFS(g, s)
		hop := seq.HopBounded(g, s, 7)
		for v := 0; v < g.N(); v++ {
			got := res.SampleDist[v][j]
			if got < want[v] {
				t.Errorf("sample %d v %d: %d underestimates %d", s, v, got, want[v])
			}
			if hop[v] < seq.Inf && got != hop[v] {
				t.Errorf("sample %d v %d: %d != h-hop %d", s, v, got, hop[v])
			}
		}
	}
	// Skeleton APSP distances must never underestimate true distances and
	// must be exact between sampled vertices (every shortest path segment
	// is covered by h-hop balls w.h.p. given the generous sample factor).
	for j, s := range res.Sampled {
		want := seq.BFS(g, s)
		for l, u := range res.Sampled {
			got := res.SkelDist[j][l]
			if got < want[u] {
				t.Errorf("skel %d->%d: %d underestimates %d", s, u, got, want[u])
			}
		}
	}
}

func TestAutoSelectsRegimes(t *testing.T) {
	g, err := (gen.Random{N: 64, P: 0.06, Directed: true, Seed: 8}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	// Large k (>= n^{1/3} = 4): Algorithm 1 path.
	many := []int{0, 8, 16, 24, 32, 40, 48, 56}
	net := newNet(t, g, 3)
	res, err := Auto(net, Spec{Sources: many})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range many {
		want := seq.BFS(g, s)
		for v := 0; v < g.N(); v++ {
			if res.Dist[v][i] != want[v] {
				t.Fatalf("many: src %d v %d: %d != %d", s, v, res.Dist[v][i], want[v])
			}
		}
	}
	// Tiny k on a long path: the repeated-SSSP branch must still be exact.
	pg := gen.Path(80)
	pnet := newNet(t, pg, 4)
	res2, err := Auto(pnet, Spec{Sources: []int{5}, Dir: proto.Undirected})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.BFS(pg, 5)
	for v := 0; v < pg.N(); v++ {
		if res2.Dist[v][0] != want[v] {
			t.Fatalf("single: v %d: %d != %d", v, res2.Dist[v][0], want[v])
		}
	}
}

// TestEntryPointsShareValidation: Run, RunSequential and Auto reject the
// same specs. RunSequential (and Auto, which sends small k to it) used to
// run unit-length BFS on a weighted graph with eps = 0 and return hop
// counts as distances.
func TestEntryPointsShareValidation(t *testing.T) {
	wg, err := (gen.Random{N: 30, P: 0.15, Weighted: true, MaxW: 9, Seed: 3}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	ug, err := (gen.Random{N: 30, P: 0.15, Seed: 3}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		run  func(*congest.Network, Spec) (*Result, error)
	}{{"Run", Run}, {"RunSequential", RunSequential}, {"Auto", Auto}}
	for _, e := range entries {
		if _, err := e.run(newNet(t, wg, 3), Spec{Sources: []int{0}}); err == nil {
			t.Errorf("%s accepted a weighted graph with eps = 0", e.name)
		}
		if _, err := e.run(newNet(t, ug, 3), Spec{Sources: []int{0}, Eps: 0.5}); err == nil {
			t.Errorf("%s accepted eps on an unweighted graph", e.name)
		}
		if _, err := e.run(newNet(t, ug, 3), Spec{}); err == nil {
			t.Errorf("%s accepted an empty source list", e.name)
		}
	}
}

// TestRunBoundKeepsDistancesBelow: with Bound set, every entry below it is
// the unbounded run's (distance and predecessor), every other entry is
// seq.Inf, and the weighted run costs fewer rounds and messages.
func TestRunBoundKeepsDistancesBelow(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g, err := (gen.Random{N: 40, P: 0.08, Directed: directed, Weighted: true,
			MaxW: 50, Seed: 6}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{Sources: []int{0, 9, 21, 30}, Eps: 0.25, Dir: proto.Forward}
		fullNet := newNet(t, g, 8)
		full, err := Run(fullNet, spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Bound = 40
		cappedNet := newNet(t, g, 8)
		capped, err := Run(cappedNet, spec)
		if err != nil {
			t.Fatal(err)
		}
		if capped.Rounds >= full.Rounds || cappedNet.Stats().Messages >= fullNet.Stats().Messages {
			t.Errorf("directed=%v: bounded run %d rounds/%d messages, unbounded %d/%d", directed,
				capped.Rounds, cappedNet.Stats().Messages, full.Rounds, fullNet.Stats().Messages)
		}
		kept := 0
		for v := range full.Dist {
			for i, d := range full.Dist[v] {
				wantD, wantP := d, full.Pred[v][i]
				if d >= spec.Bound {
					wantD, wantP = seq.Inf, -1
				} else {
					kept++
				}
				if capped.Dist[v][i] != wantD || capped.Pred[v][i] != wantP {
					t.Fatalf("directed=%v: dist[%d][%d] = %d/pred %d, want %d/pred %d", directed, v, i,
						capped.Dist[v][i], capped.Pred[v][i], wantD, wantP)
				}
			}
		}
		if kept == 0 {
			t.Errorf("directed=%v: no distance below the bound; the test checks nothing", directed)
		}
	}
}
