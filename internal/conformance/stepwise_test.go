package conformance

// Scheduler equivalence across the full algorithm matrix: every algorithm
// of the portfolio registry, on every family of every graph class it
// serves, plus the paper-only girth variant girth-prt, must produce
// identical outputs, Stats and round counts with event-driven round
// skipping (the default) and with congest.Options.Stepwise iteration,
// under both the sequential and the parallel engine. This is the
// acceptance gate for the layered engine core: skipping empty rounds must
// be unobservable except in wall clock.
//
// The matrix walk lives in a test file on purpose: the algorithm packages'
// own conformance tests import this package, so importing the facade (and
// through it the algorithm packages) from non-test conformance code would
// be an import cycle. Test binaries only link the algorithm libraries,
// which do not import conformance.

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"congestmwc"
	"congestmwc/internal/check"
	"congestmwc/internal/congest"
	"congestmwc/internal/girth"
	"congestmwc/internal/obs"
)

// registered is one algorithm entry of the equivalence matrix: a named
// Algo plus the graph class it runs on. algorithm is the portfolio name
// ("" for the paper-only variants).
type registered struct {
	name      string
	algorithm string
	class     congestmwc.Class
	algo      Algo
}

// matrixOpts raises the sampling constants (and the weighted eps) so the
// randomized algorithms stay well inside their guarantees on the families.
var matrixOpts = congestmwc.Options{SampleFactor: 4, Eps: 0.5}

// registry returns every algorithm/class combination exercised by the
// conformance suite: each portfolio algorithm on each class it serves, run
// through its registered network entry point, plus girth-prt.
func registry() []registered {
	var regs []registered
	for _, a := range congestmwc.Portfolio() {
		for _, c := range a.Classes {
			a, c := a, c
			regs = append(regs, registered{subtestName(a, c), a.Name, c, func(net *congest.Network) (int64, bool, error) {
				res, err := a.RunNetwork(net, c, matrixOpts)
				if err != nil {
					return 0, false, err
				}
				return res.Weight, res.Found, nil
			}})
		}
	}
	girthPRT := func(net *congest.Network) (int64, bool, error) {
		res, err := girth.RunPRT(net, girth.Spec{SampleFactor: matrixOpts.SampleFactor})
		if err != nil {
			return 0, false, err
		}
		return res.Weight, res.Found, nil
	}
	return append(regs, registered{"girth-prt", "", congestmwc.Undirected, girthPRT})
}

// approxNames are the subtest names of the paper's approximation: the
// package the facade dispatches each class to.
var approxNames = map[congestmwc.Class]string{
	congestmwc.Undirected:         "girth",
	congestmwc.Directed:           "dirmwc",
	congestmwc.UndirectedWeighted: "wmwc/undirected",
	congestmwc.DirectedWeighted:   "wmwc/directed",
}

// subtestName keeps the matrix's established subtest names, so results
// stay comparable across history: the approximation is named after the
// package the class dispatches to, exact engines by Describe, everything
// else by class.
func subtestName(a congestmwc.AlgorithmInfo, c congestmwc.Class) string {
	switch in := (check.Instance{Class: c}); {
	case a.Name == congestmwc.AlgoNameApprox:
		return approxNames[c]
	case a.Exact:
		return a.Name + "/" + Describe(in.Directed(), in.Weighted())
	default:
		return a.Name + "/" + c.String()
	}
}

// outcome is everything observable about one algorithm run.
type outcome struct {
	weight    int64
	found     bool
	errString string
	stats     congest.Stats
	colRounds int
}

func runOnce(t *testing.T, fam Family, seed int64, algo Algo, parallel, stepwise bool) outcome {
	t.Helper()
	g, err := fam.Build(seed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	net, err := congest.NewNetwork(g, congest.Options{
		Seed: seed + 13, Parallel: parallel, Stepwise: stepwise,
	})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	col := &obs.Collector{NoSeries: true, NoPerTag: true, NoPerLink: true}
	net.SetObserver(col)
	w, found, err := algo(net)
	out := outcome{weight: w, found: found, stats: net.Stats(), colRounds: col.Rounds}
	if err != nil {
		out.errString = err.Error()
	}
	if col.Rounds != out.stats.Rounds {
		t.Errorf("parallel=%v stepwise=%v: collector rounds %d != stats rounds %d (gap accounting)",
			parallel, stepwise, col.Rounds, out.stats.Rounds)
	}
	return out
}

func TestStepwiseEquivalence(t *testing.T) {
	const seed = 1
	for _, reg := range registry() {
		t.Run(reg.name, func(t *testing.T) {
			in := check.Instance{Class: reg.class}
			for _, fam := range Families(in.Directed(), in.Weighted()) {
				t.Run(fam.Name, func(t *testing.T) {
					base := runOnce(t, fam, seed, reg.algo, false, true)
					for _, parallel := range []bool{false, true} {
						for _, stepwise := range []bool{false, true} {
							if stepwise && !parallel {
								continue // the baseline itself
							}
							got := runOnce(t, fam, seed, reg.algo, parallel, stepwise)
							if got != base {
								t.Errorf("parallel=%v stepwise=%v: %+v, want %+v",
									parallel, stepwise, got, base)
							}
						}
					}
				})
			}
		})
	}
}

// TestCoverageDerivedFromRegistry: every list of algorithms the repository
// tests or benchmarks is derived from the portfolio registry, so each must
// equal AlgorithmNames(): check.Run's default set (which is also mwcfuzz's
// -algos default, asserted in cmd/mwcfuzz), the conformance matrix (each
// algorithm with every class it serves, plus girth-prt), the bench profile
// behind BenchmarkPortfolio and `mwcbench -portfolio`, and the case names
// of the committed bench/portfolio_baseline.json.
func TestCoverageDerivedFromRegistry(t *testing.T) {
	sets := map[string][]string{}
	triangle := check.Instance{Class: congestmwc.Undirected, N: 3, Edges: []congestmwc.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0},
	}}
	out, err := check.Run(triangle, check.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sets["check.Run default"] = out.Opts.Algos

	served := map[string][]congestmwc.Class{}
	for _, reg := range registry() {
		if reg.algorithm == "" {
			sets["paper-only variants"] = append(sets["paper-only variants"], reg.name)
			continue
		}
		if served[reg.algorithm] == nil {
			sets["conformance matrix"] = append(sets["conformance matrix"], reg.algorithm)
		}
		served[reg.algorithm] = append(served[reg.algorithm], reg.class)
	}
	for _, a := range congestmwc.Portfolio() {
		if !reflect.DeepEqual(served[a.Name], a.Classes) {
			t.Errorf("conformance matrix runs %s on %v, registry serves %v", a.Name, served[a.Name], a.Classes)
		}
	}
	if got := sets["paper-only variants"]; !reflect.DeepEqual(got, []string{"girth-prt"}) {
		t.Errorf("paper-only variants %v, want [girth-prt]", got)
	}
	delete(sets, "paper-only variants")

	cases, err := check.PortfolioProfile()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		sets["bench profile"] = append(sets["bench profile"], c.Name)
	}

	var baseline struct{ Cases []struct{ Name string } }
	data, err := os.ReadFile("../../bench/portfolio_baseline.json")
	if err == nil {
		err = json.Unmarshal(data, &baseline)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range baseline.Cases {
		sets["bench/portfolio_baseline.json"] = append(sets["bench/portfolio_baseline.json"], c.Name)
	}

	for what, got := range sets {
		sort.Strings(got)
		if want := congestmwc.AlgorithmNames(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s covers %v, registry has %v", what, got, want)
		}
	}
}
