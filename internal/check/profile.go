package check

import (
	"fmt"

	"congestmwc"
	"congestmwc/internal/gen"
)

// PortfolioCase is one case of the portfolio bench profile: a registered
// algorithm, the instance it runs on and the options of every run.
type PortfolioCase struct {
	// Name is the algorithm's registry name; it is also the sub-benchmark
	// name of BenchmarkPortfolio and the case name in
	// bench/portfolio_baseline.json.
	Name     string
	Workload string
	Graph    *congestmwc.Graph
	Opts     congestmwc.Options
}

// PortfolioProfile builds the message-bound portfolio profile, one case per
// registered algorithm: a dense random graph at n=96 (p=0.15, ~9x the
// connectivity threshold) where traffic, not diameter, dominates. It is
// the one definition both the root BenchmarkPortfolio and `mwcbench
// -portfolio -json` (which produced the committed
// bench/portfolio_baseline.json) run. The seeds are fixed, so rounds/op
// and messages/op are deterministic and scripts/benchgate.go gates them
// exactly.
func PortfolioProfile() ([]PortfolioCase, error) {
	var cases []PortfolioCase
	for _, a := range congestmwc.Portfolio() {
		class, maxW := congestmwc.UndirectedWeighted, int64(16)
		workload := "dense random undirected-weighted, n=96, p=0.15, maxW=16, fixed seeds"
		if a.Name == congestmwc.AlgoNameGirthApx {
			// The girth approximation's stretched phase is pseudo-polynomial
			// in the weights; its message-bound profile is the unweighted one.
			class, maxW = congestmwc.Undirected, 1
			workload = "dense random undirected unweighted, n=96, p=0.15, fixed seeds"
		}
		inner, err := gen.Random{
			N: 96, P: 0.15, Seed: 7, MaxW: maxW,
			Weighted: class == congestmwc.UndirectedWeighted,
		}.Graph()
		if err != nil {
			return nil, fmt.Errorf("check: portfolio profile %s: %w", a.Name, err)
		}
		g, err := congestmwc.NewGraph(inner.N(), FromInternal(inner, "").Edges, class)
		if err != nil {
			return nil, fmt.Errorf("check: portfolio profile %s: %w", a.Name, err)
		}
		cases = append(cases, PortfolioCase{Name: a.Name, Workload: workload, Graph: g, Opts: congestmwc.Options{Seed: 1}})
	}
	return cases, nil
}
