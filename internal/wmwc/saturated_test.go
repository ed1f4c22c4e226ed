package wmwc

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/dirmwc"
	"congestmwc/internal/gen"
	"congestmwc/internal/girth"
	"congestmwc/internal/graph"
	"congestmwc/internal/obs"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

// saturationCase is one unweighted instance run directly through girth.Run
// (undirected) or dirmwc.Run (directed) with the given sampling constant.
type saturationCase struct {
	name   string
	g      *graph.Graph
	seed   int64
	factor float64
}

// saturationCases spans the saturation threshold on both unweighted
// classes: sampling constants well above it (S = V), just below it (the
// sample is V or misses a vertex or two) and well below it.
func saturationCases(t *testing.T) []saturationCase {
	t.Helper()
	var cases []saturationCase
	add := func(name string, g *graph.Graph, err error, seed int64, factor float64) {
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, saturationCase{
			name: fmt.Sprintf("%s/factor=%.3g/seed=%d", name, factor, seed), g: g, seed: seed, factor: factor,
		})
	}
	for _, directed := range []bool{false, true} {
		for _, n := range []int{24, 40} {
			// The middle constant puts the sampling probability at 0.98.
			h, _ := sampleParams(n, directed)
			for _, factor := range []float64{1, 0.98 * float64(h) / math.Log(float64(n)+2), 3} {
				for seed := int64(1); seed <= 6; seed++ {
					g, err := (gen.Random{N: n, P: 4 / float64(n), Directed: directed, Seed: seed}).Graph()
					add(fmt.Sprintf("random/directed=%v/n=%d", directed, n), g, err, seed, factor)
				}
			}
		}
		// A ring's only cycle has n hops: no short cycle to fall back on.
		add(fmt.Sprintf("ring/directed=%v/n=30", directed), gen.Ring(30, directed, false, 1), nil, 5, 3)
	}
	return cases
}

// sampleParams gives the hop parameter and the sample salt with which
// girth.Run (undirected) or dirmwc.Run (directed) draws its sample, for
// spec salt 0 and no hop bound.
func sampleParams(n int, directed bool) (h int, salt int64) {
	if directed {
		return int(math.Ceil(math.Pow(float64(n), 0.6))), 3000
	}
	return int(math.Ceil(math.Sqrt(float64(n)))), 2000
}

// sampleSize is the size of the sample that girth.Run or dirmwc.Run draws
// on net; the sample is V when it equals n.
func sampleSize(net *congest.Network, factor float64) int {
	n := net.Graph().N()
	h, salt := sampleParams(n, net.Graph().Directed())
	return len(proto.Sample(n, proto.SampleProb(n, h, factor), net.Options().Seed, salt))
}

// unweightedRun is the comparable outcome of one girth/dirmwc run.
type unweightedRun struct {
	weight   int64
	found    bool
	cycle    []int
	rounds   int
	messages int
	phases   []string
}

func runUnweighted(t *testing.T, c saturationCase, paper bool) unweightedRun {
	t.Helper()
	net := newNet(t, c.g, c.seed)
	col := &obs.Collector{NoSeries: true, NoPerTag: true, NoPerLink: true}
	net.SetObserver(col)
	var out unweightedRun
	if c.g.Directed() {
		res, err := dirmwc.Run(net, dirmwc.Spec{SampleFactor: c.factor, PaperSchedule: paper})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = unweightedRun{weight: res.Weight, found: res.Found, cycle: res.Cycle}
	} else {
		res, err := girth.Run(net, girth.Spec{SampleFactor: c.factor, PaperSchedule: paper})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = unweightedRun{weight: res.Weight, found: res.Found, cycle: res.Cycle}
	}
	out.rounds, out.messages = net.Stats().Rounds, net.Stats().Messages
	for _, sp := range col.Phases {
		out.phases = append(out.phases, sp.Path)
	}
	return out
}

// TestSaturatedSampleMatchesPaper compares the default schedule with
// PaperSchedule: identical weight and Found on every instance, and the
// identical witness cycle except on undirected graphs whose sample is V;
// strictly fewer rounds and messages when the sample is V or the graph is
// undirected (girth's fused neighbour rows), and exactly the same cost on
// directed graphs otherwise. The weighted classes are compared through
// wmwc, which forwards its own PaperSchedule to every level.
//
// An undirected run whose sample is V bounds its BFS by the answer, so
// which endpoint of a tied minimum records its candidate can change: there
// the default's witness must be a simple cycle of exactly the reported
// weight, which equals the exact girth (internal/girth's exactness sweep
// checks the same on more families).
func TestSaturatedSampleMatchesPaper(t *testing.T) {
	// regimes[directed] counts instances whose sample is V, misses one
	// vertex, or misses more.
	regimes := map[bool]*[3]int{false: {}, true: {}}
	for _, c := range saturationCases(t) {
		def, paper := runUnweighted(t, c, false), runUnweighted(t, c, true)
		missing := c.g.N() - sampleSize(newNet(t, c.g, c.seed), c.factor)
		bounded := missing == 0 && !c.g.Directed()
		if def.weight != paper.weight || def.found != paper.found || !bounded && !reflect.DeepEqual(def.cycle, paper.cycle) {
			t.Errorf("%s: default (%d,%v,%v), paper (%d,%v,%v)", c.name,
				def.weight, def.found, def.cycle, paper.weight, paper.found, paper.cycle)
		}
		if bounded {
			want, ok := seq.MWC(c.g)
			if def.found != ok || ok && def.weight != want {
				t.Errorf("%s: default (%d,%v), exact girth (%d,%v)", c.name, def.weight, def.found, want, ok)
			}
			if w, err := seq.VerifyCycle(c.g, def.cycle); def.found && (err != nil || w != def.weight) {
				t.Errorf("%s: witness %v weighs %d (%v), reported %d", c.name, def.cycle, w, err, def.weight)
			}
		}
		regimes[c.g.Directed()][min(missing, 2)]++
		fewer := def.rounds < paper.rounds && def.messages < paper.messages
		same := def.rounds == paper.rounds && def.messages == paper.messages
		// Undirected runs also take phase 1's neighbour rows from the BFS,
		// where the paper schedule exchanges them, in every regime.
		wantFewer := missing == 0 || !c.g.Directed()
		if wantFewer && !fewer || !wantFewer && !same {
			t.Errorf("%s: sample misses %d vertices; default costs %d rounds/%d messages, paper %d/%d",
				c.name, missing, def.rounds, def.messages, paper.rounds, paper.messages)
		}
	}
	for directed, r := range regimes {
		if r[0] == 0 || r[1] == 0 || r[2] == 0 {
			t.Errorf("directed=%v: cases miss a regime: %d with S = V, %d missing one vertex, %d missing more",
				directed, r[0], r[1], r[2])
		}
	}

	for _, directed := range []bool{false, true} {
		// Saturated and unsaturated samples on the levels' girth/dirmwc
		// runs: the directed levels sample at rate ~ factor*ln(n)/n.
		factors := []float64{1, 3}
		if directed {
			factors = []float64{3, 8}
		}
		for _, n := range []int{12, 24} {
			for _, factor := range factors {
				for seed := int64(1); seed <= 2; seed++ {
					g, err := (gen.Random{N: n, P: 4 / float64(n), Directed: directed,
						Weighted: true, MaxW: 64, Seed: seed}).Graph()
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("wmwc/directed=%v/n=%d/factor=%v/seed=%d", directed, n, factor, seed)
					defNet, paperNet := newNet(t, g, seed), newNet(t, g, seed)
					def, err := Run(defNet, Spec{Eps: 0.5, SampleFactor: factor})
					if err != nil {
						t.Fatal(err)
					}
					paper, err := Run(paperNet, Spec{Eps: 0.5, SampleFactor: factor, PaperSchedule: true})
					if err != nil {
						t.Fatal(err)
					}
					if def.Weight != paper.Weight || def.Found != paper.Found || !reflect.DeepEqual(def.Cycle, paper.Cycle) {
						t.Errorf("%s: default (%d,%v,%v), paper (%d,%v,%v)", name,
							def.Weight, def.Found, def.Cycle, paper.Weight, paper.Found, paper.Cycle)
					}
					if def.Rounds > paper.Rounds || defNet.Stats().Messages > paperNet.Stats().Messages {
						t.Errorf("%s: default costs %d rounds/%d messages, paper %d/%d", name,
							def.Rounds, defNet.Stats().Messages, paper.Rounds, paperNet.Stats().Messages)
					}
				}
			}
		}
	}
}

// TestSaturatedSkipIffWholeSample reads the phase spans: the phases that
// cannot lower the answer once the sample is V are absent exactly then,
// and the paper schedule still runs them.
func TestSaturatedSkipIffWholeSample(t *testing.T) {
	has := func(phases []string, name string) bool {
		for _, p := range phases {
			if strings.HasSuffix(p, name) {
				return true
			}
		}
		return false
	}
	for _, c := range saturationCases(t) {
		skipped := []string{"girth:neighbourhood-bfs"}
		if c.g.Directed() {
			skipped = []string{"dirmwc:short-cycles", "ksssp:skeleton-broadcast"}
		}
		whole := sampleSize(newNet(t, c.g, c.seed), c.factor) == c.g.N()
		def := runUnweighted(t, c, false)
		for _, name := range skipped {
			if got := has(def.phases, name); got == whole {
				t.Errorf("%s: sample is V=%v but span %s present=%v", c.name, whole, name, got)
			}
		}
		if !whole {
			continue
		}
		paper := runUnweighted(t, c, true)
		for _, name := range skipped {
			if !has(paper.phases, name) {
				t.Errorf("%s: paper schedule lacks span %s", c.name, name)
			}
		}
	}
}
