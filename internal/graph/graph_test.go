package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuildValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		edges   []Edge
		opts    Options
		wantErr error
	}{
		{name: "empty graph rejected", n: 0, wantErr: ErrNoVertices},
		{name: "negative n rejected", n: -3, wantErr: ErrNoVertices},
		{name: "single vertex ok", n: 1},
		{name: "vertex out of range high", n: 2, edges: []Edge{{From: 0, To: 2, Weight: 1}}, wantErr: ErrVertexRange},
		{name: "vertex out of range negative", n: 2, edges: []Edge{{From: -1, To: 1, Weight: 1}}, wantErr: ErrVertexRange},
		{name: "self loop rejected", n: 2, edges: []Edge{{From: 1, To: 1, Weight: 1}}, wantErr: ErrSelfLoop},
		{name: "duplicate directed rejected", n: 2, opts: Options{Directed: true},
			edges: []Edge{{From: 0, To: 1}, {From: 0, To: 1}}, wantErr: ErrDuplicateEdge},
		{name: "anti-parallel directed ok", n: 2, opts: Options{Directed: true},
			edges: []Edge{{From: 0, To: 1}, {From: 1, To: 0}}},
		{name: "anti-parallel undirected rejected", n: 2,
			edges: []Edge{{From: 0, To: 1}, {From: 1, To: 0}}, wantErr: ErrDuplicateEdge},
		{name: "negative weight rejected", n: 2, opts: Options{Weighted: true},
			edges: []Edge{{From: 0, To: 1, Weight: -4}}, wantErr: ErrNegativeW},
		{name: "non-unit weight on unweighted rejected", n: 2,
			edges: []Edge{{From: 0, To: 1, Weight: 7}}, wantErr: ErrUnweighted},
		{name: "zero weight on weighted ok", n: 2, opts: Options{Weighted: true},
			edges: []Edge{{From: 0, To: 1, Weight: 0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Build(tt.n, tt.edges, tt.opts)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("Build() error = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Build() error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestUnweightedImplicitWeight(t *testing.T) {
	g := MustBuild(3, []Edge{{From: 0, To: 1}, {From: 1, To: 2}}, Options{})
	for _, e := range g.Edges() {
		if e.Weight != 1 {
			t.Errorf("edge %+v: weight = %d, want 1", e, e.Weight)
		}
	}
	if g.MaxWeight() != 1 {
		t.Errorf("MaxWeight() = %d, want 1", g.MaxWeight())
	}
}

func TestAdjacencyUndirected(t *testing.T) {
	g := MustBuild(4, []Edge{
		{From: 0, To: 1, Weight: 5},
		{From: 1, To: 2, Weight: 3},
		{From: 0, To: 3, Weight: 2},
	}, Options{Weighted: true})
	if got := len(g.Out(1)); got != 2 {
		t.Fatalf("len(Out(1)) = %d, want 2", got)
	}
	// Undirected: In == Out == Comm.
	for v := 0; v < 4; v++ {
		if len(g.In(v)) != len(g.Out(v)) || len(g.Comm(v)) != len(g.Out(v)) {
			t.Errorf("vertex %d: in/out/comm sizes differ: %d %d %d",
				v, len(g.In(v)), len(g.Out(v)), len(g.Comm(v)))
		}
	}
	if g.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d, want 2", g.Degree(0))
	}
}

func TestAdjacencyDirected(t *testing.T) {
	g := MustBuild(3, []Edge{
		{From: 0, To: 1},
		{From: 1, To: 2},
		{From: 2, To: 0},
	}, Options{Directed: true})
	if len(g.Out(0)) != 1 || g.Out(0)[0].To != 1 {
		t.Fatalf("Out(0) = %+v, want single arc to 1", g.Out(0))
	}
	if len(g.In(0)) != 1 || g.In(0)[0].To != 2 {
		t.Fatalf("In(0) = %+v, want single arc from 2", g.In(0))
	}
	// Communication graph is the undirected union.
	if g.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d, want 2", g.Degree(0))
	}
}

func TestReverse(t *testing.T) {
	g := MustBuild(3, []Edge{{From: 0, To: 1, Weight: 4}, {From: 1, To: 2, Weight: 9}},
		Options{Directed: true, Weighted: true})
	r := g.Reverse()
	if len(r.Out(1)) != 1 || r.Out(1)[0].To != 0 || r.Out(1)[0].Weight != 4 {
		t.Errorf("Reverse Out(1) = %+v, want arc to 0 weight 4", r.Out(1))
	}
	if rr := r.Reverse(); rr.M() != g.M() {
		t.Errorf("double reverse edge count = %d, want %d", rr.M(), g.M())
	}
	und := MustBuild(2, []Edge{{From: 0, To: 1}}, Options{})
	if und.Reverse() != und {
		t.Error("Reverse of undirected graph should be the receiver")
	}
}

func TestAsWeighted(t *testing.T) {
	g := MustBuild(3, []Edge{{From: 0, To: 1}, {From: 1, To: 2}}, Options{Directed: true})
	w := g.AsWeighted()
	if !w.Weighted() {
		t.Fatal("AsWeighted() not weighted")
	}
	if w.Edge(0).Weight != 1 {
		t.Errorf("AsWeighted weight = %d, want 1", w.Edge(0).Weight)
	}
	if g.AsWeighted() == g {
		t.Error("AsWeighted on unweighted graph should return a new graph")
	}
	if w.AsWeighted() != w {
		t.Error("AsWeighted on weighted graph should return the receiver")
	}
}

func TestConnectedComm(t *testing.T) {
	conn := MustBuild(3, []Edge{{From: 0, To: 1}, {From: 1, To: 2}}, Options{Directed: true})
	if !conn.ConnectedComm() {
		t.Error("path digraph should have connected communication graph")
	}
	disc := MustBuild(4, []Edge{{From: 0, To: 1}, {From: 2, To: 3}}, Options{})
	if disc.ConnectedComm() {
		t.Error("two components should not be connected")
	}
}

func TestCommDiameter(t *testing.T) {
	// Path 0-1-2-3: diameter 3, ecc(0)=3.
	g := MustBuild(4, []Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}, Options{})
	d, e0 := g.CommDiameter()
	if d != 3 || e0 != 3 {
		t.Errorf("CommDiameter() = (%d,%d), want (3,3)", d, e0)
	}
	// Star: diameter 2.
	star := MustBuild(5, []Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3}, {From: 0, To: 4},
	}, Options{})
	if d, _ := star.CommDiameter(); d != 2 {
		t.Errorf("star diameter = %d, want 2", d)
	}
}

func TestScaleWeights(t *testing.T) {
	g := MustBuild(3, []Edge{{From: 0, To: 1, Weight: 10}, {From: 1, To: 2, Weight: 20}},
		Options{Weighted: true})
	s, err := g.ScaleWeights(func(w int64) int64 { return w / 10 })
	if err != nil {
		t.Fatal(err)
	}
	if s.Edge(0).Weight != 1 || s.Edge(1).Weight != 2 {
		t.Errorf("scaled weights = %d,%d want 1,2", s.Edge(0).Weight, s.Edge(1).Weight)
	}
	if _, err := g.ScaleWeights(func(int64) int64 { return -1 }); err == nil {
		t.Error("negative scaled weight should be rejected")
	}
}

func TestScalingProperties(t *testing.T) {
	s, err := NewScaling(100, 0.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Levels() < 17 { // log2(100*1000) ~ 16.6
		t.Errorf("Levels() = %d, want >= 17", s.Levels())
	}
	if got, want := s.HopBudget(), 500; got != want {
		t.Errorf("HopBudget() = %d, want %d", got, want)
	}
	if s.ScaleWeight(0, 3) != 0 {
		t.Error("weight 0 must scale to 0")
	}
}

func TestNewScalingValidation(t *testing.T) {
	if _, err := NewScaling(0, 0.5, 10); err == nil {
		t.Error("h=0 should be rejected")
	}
	if _, err := NewScaling(10, 0, 10); err == nil {
		t.Error("eps=0 should be rejected")
	}
	if s, err := NewScaling(10, 0.5, 0); err != nil || s.Levels() < 1 {
		t.Errorf("maxW=0 should clamp, got s=%v err=%v", s, err)
	}
}

// Property: for any weight w and any path weight, the scaling at the level
// i* = ceil(log2 w(P)) approximates an h-hop path within (1+eps): the
// rescaled scaled-weight of each edge overestimates by at most eps*2^i/(2h)
// per edge, i.e. by eps*w(P)/h per edge and eps*w(P) over <= h edges... we
// check the per-edge inequality w <= Unscale(ScaleWeight(w,i), i) <
// w + eps*2^i/(2h) directly.
func TestScaleUnscaleBounds(t *testing.T) {
	s, err := NewScaling(50, 0.25, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(wRaw uint32, iRaw uint8) bool {
		w := int64(wRaw % (1 << 20))
		i := 1 + int(iRaw)%s.Levels()
		c := s.ScaleWeight(w, i)
		back := s.Unscale(c, i)
		slack := s.Eps * float64(int64(1)<<uint(i)) / (2 * float64(s.H))
		return back >= float64(w)-1e-9 && back < float64(w)+slack+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Build on random valid inputs produces consistent adjacency:
// every arc appears in both endpoints' views, sum of out-degrees equals m
// (directed) or 2m (undirected).
func TestBuildAdjacencyConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		directed := rng.Intn(2) == 0
		var edges []Edge
		seen := map[[2]int]bool{}
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			a, b := u, v
			if !directed && a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			edges = append(edges, Edge{From: u, To: v, Weight: 1 + rng.Int63n(100)})
		}
		g, err := Build(n, edges, Options{Directed: directed, Weighted: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		total := 0
		for v := 0; v < n; v++ {
			total += len(g.Out(v))
			for _, a := range g.Out(v) {
				found := false
				for _, b := range g.In(a.To) {
					if b.EdgeID == a.EdgeID {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: arc %d->%d (edge %d) missing from In(%d)",
						trial, v, a.To, a.EdgeID, a.To)
				}
			}
		}
		want := g.M()
		if !directed {
			want *= 2
		}
		if total != want {
			t.Fatalf("trial %d: sum out-degrees = %d, want %d", trial, total, want)
		}
	}
}

// LevelsBelow keeps level i exactly when i == 1 or 2^(i-1) < bound, and all
// levels for bound <= 0.
func TestScalingLevelsBelow(t *testing.T) {
	sc, err := NewScaling(16, 0.125, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.LevelsBelow(0); got != sc.Levels() {
		t.Errorf("LevelsBelow(0) = %d, want all %d", got, sc.Levels())
	}
	for bound := int64(1); bound <= 1<<uint(sc.Levels()+1); bound++ {
		got := sc.LevelsBelow(bound)
		for i := 1; i <= sc.Levels(); i++ {
			keep := i == 1 || int64(1)<<uint(i-1) < bound
			if (i <= got) != keep {
				t.Fatalf("bound %d: LevelsBelow = %d, level %d kept=%v want %v", bound, got, i, i <= got, keep)
			}
		}
	}
}
