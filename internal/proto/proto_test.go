package proto

import (
	"sort"
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

func newNet(t *testing.T, g *graph.Graph) *congest.Network {
	t.Helper()
	net, err := congest.NewNetwork(g, congest.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildTreePath(t *testing.T) {
	g := gen.Path(6)
	net := newNet(t, g)
	tree, err := BuildTree(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if tree.Depth[v] != v {
			t.Errorf("depth[%d] = %d, want %d", v, tree.Depth[v], v)
		}
	}
	if tree.Parent[0] != -1 || tree.Parent[3] != 2 {
		t.Errorf("parents wrong: %v", tree.Parent)
	}
	if len(tree.Children[2]) != 1 || tree.Children[2][0] != 3 {
		t.Errorf("children[2] = %v, want [3]", tree.Children[2])
	}
	if tree.Height != 5 {
		t.Errorf("height = %d, want 5", tree.Height)
	}
}

func TestBuildTreeDepthsMatchBFS(t *testing.T) {
	g, err := (gen.Random{N: 80, P: 0.05, Seed: 3}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g)
	tree, err := BuildTree(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.BFSComm(g, 0)
	for v := 0; v < g.N(); v++ {
		if int64(tree.Depth[v]) != want[v] {
			t.Errorf("depth[%d] = %d, want %d", v, tree.Depth[v], want[v])
		}
		if v != 0 && tree.Depth[tree.Parent[v]] != tree.Depth[v]-1 {
			t.Errorf("parent depth inconsistent at %d", v)
		}
	}
	// Tree construction is O(D): allow a small constant factor.
	d, _ := g.CommDiameter()
	if r := net.Stats().Rounds; r > 4*d+8 {
		t.Errorf("tree construction took %d rounds for diameter %d", r, d)
	}
}

func TestBuildTreeDirectedUsesCommGraph(t *testing.T) {
	// Directed path 0->1->2: communication is bidirectional, so a tree
	// rooted at 2 must still reach 0.
	g := graph.MustBuild(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}},
		graph.Options{Directed: true})
	net := newNet(t, g)
	tree, err := BuildTree(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth[0] != 2 {
		t.Errorf("depth[0] = %d, want 2", tree.Depth[0])
	}
}

func TestConvergecastMin(t *testing.T) {
	g, err := (gen.Random{N: 50, P: 0.08, Seed: 11}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g)
	tree, err := BuildTree(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, g.N())
	for v := range values {
		values[v] = int64(1000 - 7*v)
	}
	got, err := ConvergecastMin(net, tree, values)
	if err != nil {
		t.Fatal(err)
	}
	want := values[g.N()-1]
	if got != want {
		t.Errorf("ConvergecastMin = %d, want %d", got, want)
	}
}

func TestConvergecastMinWithInf(t *testing.T) {
	g := gen.Path(4)
	net := newNet(t, g)
	tree, err := BuildTree(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := []int64{seq.Inf, seq.Inf, 42, seq.Inf}
	got, err := ConvergecastMin(net, tree, values)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("ConvergecastMin = %d, want 42", got)
	}
}

func TestBroadcastDeliversAllRecords(t *testing.T) {
	g, err := (gen.Random{N: 30, P: 0.1, Seed: 2}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g)
	tree, err := BuildTree(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := make([][][]int64, g.N())
	total := 0
	for v := 0; v < g.N(); v += 3 {
		values[v] = [][]int64{{int64(v), int64(v * v)}}
		total++
	}
	out, err := Broadcast(net, tree, values)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if len(out[v]) != total {
			t.Fatalf("node %d received %d records, want %d", v, len(out[v]), total)
		}
		sums := make(map[int64]bool)
		for _, rec := range out[v] {
			if rec[1] != rec[0]*rec[0] {
				t.Fatalf("node %d: corrupted record %v", v, rec)
			}
			sums[rec[0]] = true
		}
		if len(sums) != total {
			t.Fatalf("node %d: duplicate records", v)
		}
	}
}

func TestBroadcastRoundsLinearInM(t *testing.T) {
	// Broadcasting M records over a path of length D should take O(M+D)
	// rounds, not O(M*D).
	g := gen.Path(20)
	net := newNet(t, g)
	tree, err := BuildTree(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := net.Stats().Rounds
	m := 50
	values := make([][][]int64, 20)
	for i := 0; i < m; i++ {
		values[19] = append(values[19], []int64{int64(i)})
	}
	if _, err := Broadcast(net, tree, values); err != nil {
		t.Fatal(err)
	}
	rounds := net.Stats().Rounds - before
	// Up 19 hops + down 19 hops + M pipelined, times message size/bandwidth.
	if rounds > 2*(m+2*19)+10 {
		t.Errorf("broadcast of %d records took %d rounds, want O(M+D)", m, rounds)
	}
}

func TestMultiBFSMatchesSeqBFS(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g, err := (gen.Random{N: 60, P: 0.06, Directed: directed, Seed: 21}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		net := newNet(t, g)
		sources := []int{0, 7, 13, 40}
		res, err := RunMultiBFS(net, MultiBFSSpec{Sources: sources, Dir: Forward})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sources {
			want := seq.BFS(g, s)
			for v := 0; v < g.N(); v++ {
				if res.Dist[v][i] != want[v] {
					t.Errorf("directed=%v src %d v %d: dist %d, want %d",
						directed, s, v, res.Dist[v][i], want[v])
				}
			}
		}
	}
}

func TestMultiBFSBackward(t *testing.T) {
	g, err := (gen.Random{N: 40, P: 0.08, Directed: true, Seed: 5}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g)
	sources := []int{3, 17}
	res, err := RunMultiBFS(net, MultiBFSSpec{Sources: sources, Dir: Backward})
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

func TestMultiBFSBound(t *testing.T) {
	g := gen.Path(10)
	net := newNet(t, g)
	res, err := RunMultiBFS(net, MultiBFSSpec{Sources: []int{0}, Dir: Undirected, Bound: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		want := int64(v)
		if v > 4 {
			want = seq.Inf
		}
		if res.Dist[v][0] != want {
			t.Errorf("dist[%d] = %d, want %d", v, res.Dist[v][0], want)
		}
	}
}

func TestMultiBFSWeightedLengths(t *testing.T) {
	// Arc lengths simulate the stretched graph: distances must equal
	// weighted shortest paths.
	g, err := (gen.Random{N: 35, P: 0.1, Directed: true, Weighted: true, MaxW: 6, Seed: 9}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g)
	sources := []int{0, 11}
	res, err := RunMultiBFS(net, MultiBFSSpec{
		Sources: sources,
		Dir:     Forward,
		Length:  func(a graph.Arc) int64 { return a.Weight },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		want := seq.Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			if res.Dist[v][i] != want[v] {
				t.Errorf("src %d v %d: dist %d, want %d", s, v, res.Dist[v][i], want[v])
			}
		}
	}
}

func TestMultiBFSStretchedChargesRounds(t *testing.T) {
	// A single heavy edge must take ~weight rounds to traverse.
	g := graph.MustBuild(2, []graph.Edge{{From: 0, To: 1, Weight: 30}},
		graph.Options{Weighted: true})
	net := newNet(t, g)
	res, err := RunMultiBFS(net, MultiBFSSpec{
		Sources: []int{0},
		Dir:     Undirected,
		Length:  func(a graph.Arc) int64 { return a.Weight },
		Stretch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[1][0] != 30 {
		t.Fatalf("dist = %d, want 30", res.Dist[1][0])
	}
	if res.Rounds < 30 {
		t.Errorf("stretched traversal took %d rounds, want >= 30", res.Rounds)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestMultiBFSTopSigma(t *testing.T) {
	// All vertices are sources on a path with sigma=3: each node must know
	// exact distances to (at least) its 3 nearest vertices, and must not
	// know distances to far vertices (beyond what forwarding allows).
	n := 12
	g := gen.Path(n)
	net := newNet(t, g)
	sources := make([]int, n)
	for i := range sources {
		sources[i] = i
	}
	res, err := RunMultiBFS(net, MultiBFSSpec{Sources: sources, Dir: Undirected, TopSigma: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		// Collect the known (dist, src) pairs sorted.
		type pair struct {
			d int64
			s int
		}
		var known []pair
		for s := 0; s < n; s++ {
			if res.Dist[v][s] < seq.Inf {
				known = append(known, pair{res.Dist[v][s], s})
			}
		}
		sort.Slice(known, func(i, j int) bool {
			if known[i].d != known[j].d {
				return known[i].d < known[j].d
			}
			return known[i].s < known[j].s
		})
		if len(known) < 3 {
			t.Fatalf("node %d knows only %d sources, want >= 3", v, len(known))
		}
		// The 3 nearest must be correct.
		for i := 0; i < 3; i++ {
			if want := int64(abs(v - known[i].s)); known[i].d != want {
				t.Errorf("node %d: dist to %d = %d, want %d", v, known[i].s, known[i].d, want)
			}
		}
	}
}

func TestMultiBFSPredFormsTree(t *testing.T) {
	g, err := (gen.Random{N: 50, P: 0.07, Seed: 13}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g)
	res, err := RunMultiBFS(net, MultiBFSSpec{Sources: []int{4}, Dir: Undirected})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if v == 4 {
			if res.Pred[v][0] != -1 {
				t.Errorf("source pred = %d, want -1", res.Pred[v][0])
			}
			continue
		}
		p := int(res.Pred[v][0])
		if p < 0 {
			t.Fatalf("node %d has no pred", v)
		}
		if res.Dist[p][0]+1 != res.Dist[v][0] {
			t.Errorf("node %d: pred %d dist %d vs own %d", v, p, res.Dist[p][0], res.Dist[v][0])
		}
	}
}

func TestMultiBFSKSourceRoundsPipelines(t *testing.T) {
	// k sources on a path: rounds should be O(k + D), not O(k*D).
	n, k := 60, 20
	g := gen.Path(n)
	net := newNet(t, g)
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i * 3
	}
	res, err := RunMultiBFS(net, MultiBFSSpec{Sources: sources, Dir: Undirected})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 4*(n+k) {
		t.Errorf("k-source BFS took %d rounds, want O(k+D) ~ %d", res.Rounds, n+k)
	}
	for i, s := range sources {
		want := seq.BFS(g, s)
		for v := 0; v < n; v++ {
			if res.Dist[v][i] != want[v] {
				t.Fatalf("src %d v %d: dist %d want %d", s, v, res.Dist[v][i], want[v])
			}
		}
	}
}

func TestMultiBFSSpecValidation(t *testing.T) {
	net := newNet(t, gen.Path(3))
	if _, err := RunMultiBFS(net, MultiBFSSpec{}); err == nil {
		t.Error("empty spec should fail")
	}
}

func TestConvergecastOps(t *testing.T) {
	g, err := (gen.Random{N: 30, P: 0.1, Seed: 4}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net := newNet(t, g)
	tree, err := BuildTree(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, g.N())
	var sum int64
	for v := range values {
		values[v] = int64((v*7)%13 - 6)
		sum += values[v]
	}
	tests := []struct {
		op   AggregateOp
		want int64
	}{
		{op: OpMin, want: -6},
		{op: OpMax, want: 6},
		{op: OpSum, want: sum},
	}
	for _, tt := range tests {
		got, err := Convergecast(net, tree, tt.op, values)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("op %d: got %d, want %d", tt.op, got, tt.want)
		}
	}
	if _, err := Convergecast(net, tree, AggregateOp(99), values); err == nil {
		t.Error("unknown op should fail")
	}
	if _, err := Convergecast(net, tree, OpMin, values[:3]); err == nil {
		t.Error("short value slice should fail")
	}
}
