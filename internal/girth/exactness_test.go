package girth

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

// sweepCase is one unweighted instance of the exactness sweep.
type sweepCase struct {
	name string
	g    *graph.Graph
}

// undirected builds an unweighted undirected graph from vertex pairs.
func undirected(t *testing.T, n int, pairs [][2]int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = graph.Edge{From: p[0], To: p[1], Weight: 1}
	}
	g, err := graph.Build(n, edges, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// exactnessSweep lists the families on which a run whose sample is all of
// V must report the exact girth: rings up to C_40, where the only cycle is
// as long as the graph; grids; the Petersen and Heawood cages; random
// cubic graphs; K_{3,3}; a tree plus one edge; two cycles of different
// lengths joined by a long path; and random graphs at p = 4/n.
func exactnessSweep(t *testing.T) []sweepCase {
	t.Helper()
	var cases []sweepCase
	add := func(name string, g *graph.Graph) { cases = append(cases, sweepCase{name, g}) }
	for n := 3; n <= 40; n++ {
		add(fmt.Sprintf("ring/n=%d", n), gen.Ring(n, false, false, 1))
	}
	for _, rc := range [][2]int{{2, 2}, {2, 9}, {3, 7}, {6, 6}, {10, 12}} {
		add(fmt.Sprintf("grid/%dx%d", rc[0], rc[1]), gen.Grid(rc[0], rc[1], false, 0, 0))
	}
	var petersen [][2]int
	for i := 0; i < 5; i++ {
		petersen = append(petersen, [2]int{i, (i + 1) % 5}, [2]int{i, i + 5}, [2]int{5 + i, 5 + (i+2)%5})
	}
	add("petersen", undirected(t, 10, petersen))
	// Heawood: LCF notation [5,-5]^7.
	var heawood [][2]int
	for i := 0; i < 14; i++ {
		heawood = append(heawood, [2]int{i, (i + 1) % 14})
		if i%2 == 0 {
			heawood = append(heawood, [2]int{i, (i + 5) % 14})
		}
	}
	add("heawood", undirected(t, 14, heawood))
	for i, n := range []int{8, 20, 50, 120} {
		g, err := gen.RandomRegular(n, 3, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("cubic/n=%d", n), g)
	}
	var k33 [][2]int
	for a := 0; a < 3; a++ {
		for b := 3; b < 6; b++ {
			k33 = append(k33, [2]int{a, b})
		}
	}
	add("K3,3", undirected(t, 6, k33))
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + 20*int(seed)
		var tree [][2]int
		for v := 1; v < n; v++ {
			tree = append(tree, [2]int{rng.Intn(v), v})
		}
		// Close one cycle through vertex 0 and the last vertex whose tree
		// parent is not 0.
		v := n - 1
		for tree[v-1][0] == 0 {
			v--
		}
		add(fmt.Sprintf("tree+edge/n=%d", n), undirected(t, n, append(tree, [2]int{0, v})))
	}
	for _, lens := range [][3]int{{5, 9, 20}, {12, 7, 30}, {16, 16, 60}} {
		// Cycle a on 0..a-1, a path of length l from vertex 0 to vertex a,
		// cycle b on a..a+b-1; the path's inner vertices follow.
		a, b, l := lens[0], lens[1], lens[2]
		var pairs [][2]int
		for i := 0; i < a; i++ {
			pairs = append(pairs, [2]int{i, (i + 1) % a})
		}
		for i := 0; i < b; i++ {
			pairs = append(pairs, [2]int{a + i, a + (i+1)%b})
		}
		prev := 0
		for i := 1; i < l; i++ {
			next := a + b + i - 1
			pairs = append(pairs, [2]int{prev, next})
			prev = next
		}
		pairs = append(pairs, [2]int{prev, a})
		add(fmt.Sprintf("two-cycles/%d-%d/path=%d", a, b, l), undirected(t, a+b+l-1, pairs))
	}
	for _, n := range []int{16, 24, 40, 64, 96, 140, 200} {
		for seed := int64(1); seed <= 2; seed++ {
			g, err := (gen.Random{N: n, P: 4 / float64(n), Seed: seed}).Graph()
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("random/n=%d/seed=%d", n, seed), g)
		}
	}
	return cases
}

// TestSaturatedExactnessSweep holds the answer-bounded all-sources BFS to
// the exact girth: on every sweep instance and under both engines, the
// default schedule (sample W = V) reports seq.MWC, its witness is a simple
// cycle of exactly that weight, and it costs no more rounds or messages
// than PaperSchedule, which runs the unbounded BFS and phases 2-3.
func TestSaturatedExactnessSweep(t *testing.T) {
	for _, c := range exactnessSweep(t) {
		n := c.g.N()
		// Run's sample at the default constant and spec salt 0.
		h := int(math.Ceil(math.Sqrt(float64(n))))
		if w := proto.Sample(n, proto.SampleProb(n, h, 3), 1, 2000); len(w) != n {
			t.Fatalf("%s: sample has %d of %d vertices; the sweep needs W = V", c.name, len(w), n)
		}
		want, cyclic := seq.MWC(c.g)
		for _, parallel := range []bool{false, true} {
			name := fmt.Sprintf("%s/parallel=%v", c.name, parallel)
			run := func(paper bool) (*Result, congest.Stats) {
				net, err := congest.NewNetwork(c.g, congest.Options{Seed: 1, Parallel: parallel, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(net, Spec{PaperSchedule: paper})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return res, net.Stats()
			}
			res, st := run(false)
			if res.Found != cyclic || cyclic && res.Weight != want {
				t.Errorf("%s: got (%d,%v), exact girth (%d,%v)", name, res.Weight, res.Found, want, cyclic)
				continue
			}
			if res.Found {
				if w, err := seq.VerifyCycle(c.g, res.Cycle); err != nil || w != res.Weight {
					t.Errorf("%s: witness %v weighs %d (%v), reported %d", name, res.Cycle, w, err, res.Weight)
				}
			}
			_, paper := run(true)
			if st.Rounds > paper.Rounds || st.Messages > paper.Messages {
				t.Errorf("%s: default costs %d rounds/%d messages, paper schedule %d/%d",
					name, st.Rounds, st.Messages, paper.Rounds, paper.Messages)
			}
		}
	}
}
