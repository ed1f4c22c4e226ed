package congestmwc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"congestmwc/internal/agarwal"
	"congestmwc/internal/congest"
	"congestmwc/internal/dirmwc"
	"congestmwc/internal/exact"
	"congestmwc/internal/girth"
	"congestmwc/internal/girthapx"
	"congestmwc/internal/wmwc"
)

// Algorithm names of the portfolio. "approx" and "exact" are the legacy
// facade entry points (the source paper's class-dispatched approximations
// and the APSP baseline); "agarwal" and "girthapx" are the successor-paper
// packages.
const (
	AlgoNameApprox   = "approx"
	AlgoNameExact    = "exact"
	AlgoNameAgarwal  = "agarwal"
	AlgoNameGirthApx = "girthapx"
)

// AlgorithmInfo describes one registered algorithm of the portfolio: which
// classes it serves, the guarantee it is registered for, the bounds the
// oracle harness (internal/check) enforces on it, a calibrated round-cost
// model the planner ranks candidates by, and the entry point every run goes
// through. It is the one list of algorithms: the CLIs, the oracle harness,
// the conformance matrix and the bench profile all iterate Portfolio().
type AlgorithmInfo struct {
	// Name is the registry key, used in job specs and CLI flags.
	Name string
	// Description is a one-line human summary.
	Description string
	// Classes lists the graph classes the algorithm serves.
	Classes []Class
	// Exact reports whether the registered ratio is exactly 1 on every
	// served class.
	Exact bool
	// RejectsZeroWeight reports that the algorithm declines weighted
	// instances containing zero-weight edges (the scaling/stretched
	// machinery needs weights >= 1). The planner filters on it and the
	// oracle harness excuses the rejection.
	RejectsZeroWeight bool
	// GirthFactor reports that, on the undirected unweighted class, the
	// algorithm attains the paper's (2 - 1/g) girth factor — strictly
	// inside plain factor 2, and the only way (besides exactness) to meet
	// the "girth" guarantee.
	GirthFactor bool
	// CheckMaxWeight, when positive, caps the edge weights of the
	// instances the oracle harness runs the algorithm on: above it a
	// pseudo-polynomial phase would stall a fuzz soak. It is a harness
	// range, not a correctness limit.
	CheckMaxWeight int64
	// Ratio returns the registered approximation factor on the class (1
	// for exact algorithms); the planner matches guarantees against it.
	Ratio func(class Class, eps float64) float64
	// Bound returns the largest weight the algorithm may report on the
	// class when the minimum weight cycle weighs ref: the registered
	// guarantee in integer form, which the oracle harness enforces on every
	// fuzz instance (ref itself for exact algorithms).
	Bound func(class Class, ref int64, eps float64) int64
	// RoundCeiling is the theorem-shaped round budget the oracle harness
	// enforces at n vertices, communication diameter d and maximum edge
	// weight maxW (1 on unweighted classes).
	RoundCeiling func(class Class, n, d int, eps float64, maxW int64) int
	// EstimateRounds is the planner's cost model: a round estimate from
	// instance features, theorem-shaped with constants calibrated against
	// the committed bench baselines (bench/portfolio_baseline.json).
	EstimateRounds func(class Class, n, m int, maxW int64, eps float64) float64
	// RunNetwork runs the algorithm on a prepared network of the class and
	// returns its answer (Weight, Found, Cycle); the traffic counters stay
	// on the network. Its type names internal/congest, so like
	// Options.WithObserver it is usable only inside the module.
	// RunAlgorithmCtx wraps it with validation, cancellation and the
	// observer.
	RunNetwork func(net *congest.Network, class Class, opts Options) (*Result, error)
}

// ServesClass reports whether the algorithm is registered for the class.
func (a AlgorithmInfo) ServesClass(c Class) bool {
	for _, cc := range a.Classes {
		if cc == c {
			return true
		}
	}
	return false
}

var allClasses = []Class{Undirected, Directed, UndirectedWeighted, DirectedWeighted}

// portfolio is the fixed algorithm registry. Order is presentation order;
// the planner re-sorts by estimated cost.
var portfolio = []AlgorithmInfo{
	{
		Name:        AlgoNameApprox,
		Description: "the source paper's sublinear-round approximation for the graph's class",
		Classes:     allClasses,
		// wmwc's scaling levels need weights >= 1 on the weighted classes.
		RejectsZeroWeight: true,
		GirthFactor:       true,
		Ratio: func(c Class, eps float64) float64 {
			switch c {
			case Undirected, Directed:
				return 2
			default:
				return 2 + epsOrDefault(eps)
			}
		},
		Bound:          boundApprox,
		RoundCeiling:   roundCeiling(ceilApprox),
		EstimateRounds: estApprox,
		RunNetwork:     runApprox,
	},
	{
		Name:         AlgoNameExact,
		Description:  "O~(n)-round exact MWC via n-source APSP",
		Classes:      allClasses,
		Exact:        true,
		Ratio:        ratioOne,
		Bound:        boundExact,
		RoundCeiling: roundCeiling(ceilExactAPSP),
		EstimateRounds: func(c Class, n, m int, maxW int64, eps float64) float64 {
			return estExact(c, n, m, maxW)
		},
		RunNetwork: func(net *congest.Network, _ Class, _ Options) (*Result, error) {
			res, err := exact.MWC(net, exact.Spec{})
			if err != nil {
				return nil, err
			}
			return answer(res.Weight, res.Found, res.Cycle), nil
		},
	},
	{
		Name:         AlgoNameAgarwal,
		Description:  "deterministic exact MWC via batched k-source SSSP with candidate pruning",
		Classes:      allClasses,
		Exact:        true,
		Ratio:        ratioOne,
		Bound:        boundExact,
		RoundCeiling: roundCeiling(ceilAgarwal),
		EstimateRounds: func(c Class, n, m int, maxW int64, eps float64) float64 {
			return estAgarwal(c, n, m, maxW)
		},
		RunNetwork: func(net *congest.Network, _ Class, _ Options) (*Result, error) {
			res, err := agarwal.MWC(net, agarwal.Spec{})
			if err != nil {
				return nil, err
			}
			return answer(res.Weight, res.Found, res.Cycle), nil
		},
	},
	{
		Name:        AlgoNameGirthApx,
		Description: "factor-2 undirected girth approximation from one exact sampled SSSP pass",
		Classes:     []Class{Undirected, UndirectedWeighted},
		// The sigma-detection phase runs on the stretched-graph simulation,
		// which needs weights >= 1 and whose round count is
		// pseudo-polynomial in the weights: the generator's near-2^30 weight
		// shapes would stall a soak. The planner prices this in
		// (estGirthApx grows linearly with maxW), so the harness cap mirrors
		// the region where the algorithm is actually eligible to win.
		RejectsZeroWeight: true,
		CheckMaxWeight:    64,
		Ratio:             func(Class, float64) float64 { return 2 },
		// A plain 2, slack 0: on the unweighted class the (2g-1) girth
		// bound is even tighter, but 2*ref is what the portfolio promises
		// and the planner relies on.
		Bound:        func(_ Class, ref int64, _ float64) int64 { return 2 * ref },
		RoundCeiling: roundCeiling(ceilGirthApx),
		EstimateRounds: func(c Class, n, m int, maxW int64, eps float64) float64 {
			return estGirthApx(c, n, m, maxW)
		},
		RunNetwork: func(net *congest.Network, _ Class, opts Options) (*Result, error) {
			res, err := girthapx.Run(net, girthapx.Spec{SampleFactor: opts.SampleFactor})
			if err != nil {
				return nil, err
			}
			return answer(res.Weight, res.Found, res.Cycle), nil
		},
	},
}

// runApprox dispatches the source paper's approximation on the class.
func runApprox(net *congest.Network, c Class, opts Options) (*Result, error) {
	switch c {
	case Undirected:
		res, err := girth.Run(net, girth.Spec{SampleFactor: opts.SampleFactor})
		if err != nil {
			return nil, err
		}
		return answer(res.Weight, res.Found, res.Cycle), nil
	case Directed:
		res, err := dirmwc.Run(net, dirmwc.Spec{SampleFactor: opts.SampleFactor})
		if err != nil {
			return nil, err
		}
		return answer(res.Weight, res.Found, res.Cycle), nil
	default:
		res, err := wmwc.Run(net, wmwc.Spec{Eps: epsOrDefault(opts.Eps), SampleFactor: opts.SampleFactor})
		if err != nil {
			return nil, err
		}
		return answer(res.Weight, res.Found, res.Cycle), nil
	}
}

// answer is an algorithm package's result in facade form, before the run
// path adds the traffic counters.
func answer(weight int64, found bool, cycle []int) *Result {
	return &Result{Weight: weight, Found: found, Cycle: cycle}
}

func ratioOne(Class, float64) float64 { return 1 }

func boundExact(_ Class, ref int64, _ float64) int64 { return ref }

// boundApprox is the largest weight the paper's theorems permit: (2 -
// 1/g)*g = 2g - 1 for the undirected girth (Theorem 1.3.B), 2*MWC for
// directed unweighted (Theorem 1.2.C) and (2+eps)*MWC for the weighted
// classes (Theorems 1.2.D, 1.4.C). A small additive slack (+2) absorbs
// integer rounding in the weighted pipeline.
func boundApprox(c Class, ref int64, eps float64) int64 {
	switch c {
	case Undirected:
		return 2*ref - 1
	case Directed:
		return 2 * ref
	default:
		return int64(math.Ceil((2+epsOrDefault(eps))*float64(ref))) + 2
	}
}

func epsOrDefault(eps float64) float64 {
	if eps > 0 {
		return eps
	}
	return 0.25
}

// Cost models. Shapes follow the registered round theorems; the leading
// constants are least-squares fits to measured simulator rounds on
// sparse random instances (n in {32, 64, 128}, p = 4/n, maxW = 16, eps =
// 0.25 — the message-bound profile of BenchmarkPortfolio, committed in
// bench/portfolio_baseline.json), so the planner's ranking reflects what
// the simulator actually charges rather than asymptotics alone. The
// headline consequence of honest calibration: the sublinear-round paper
// algorithms carry polylog/eps constants that only pay off at n far
// beyond simulable sizes, so at serving scale the planner prefers the
// linear-round exact engines for everything the guarantees allow.

// estApprox: O~(sqrt(n)+D) undirected, O~(n^{4/5}+D) directed,
// O~(n^{2/3}+D) and O~(n^{3/5}+D) per scaling level weighted.
func estApprox(c Class, n, m int, maxW int64, eps float64) float64 {
	fn := float64(n)
	lg := math.Log2(fn + 2)
	levels := math.Log2(float64(maxW)+2) + 1
	switch c {
	case Undirected:
		return 1.8*math.Sqrt(fn)*lg + 1.2*fn
	case Directed:
		return 38 * math.Pow(fn, 0.8) * lg
	case UndirectedWeighted:
		return 17 * math.Pow(fn, 2.0/3) * lg * levels / epsOrDefault(eps)
	default: // DirectedWeighted
		return 42 * math.Pow(fn, 0.6) * lg * levels / epsOrDefault(eps)
	}
}

// estExact: one n-source pipelined BFS / Bellman-Ford, O(n + D) rounds.
// The undirected constant dates from a separate O(n) vector exchange after
// the APSP; the relaxation now hands each node its neighbours' rows, so
// measured undirected rounds sit near 1.1n, about half the estimate. The
// constants stay as they are so that the planner's decisions do not move.
func estExact(c Class, n, m int, maxW int64) float64 {
	fn := float64(n)
	switch c {
	case Undirected, UndirectedWeighted:
		return 2.2 * fn
	default:
		return 1.1 * fn
	}
}

// estAgarwal: sqrt(n) batches of sqrt(n)-source runs. The batch barriers
// add a sqrt(n) term over the exact baseline while candidate pruning
// shrinks the linear term (strongly so on directed graphs, where measured
// rounds grow well below 1*n).
func estAgarwal(c Class, n, m int, maxW int64) float64 {
	fn := float64(n)
	switch c {
	case Undirected, UndirectedWeighted:
		return 1.9*fn + 10*math.Sqrt(fn)
	default:
		return 0.8*fn + 8*math.Sqrt(fn)
	}
}

// estGirthApx: one sampled exact SSSP pass (sqrt(n) log n sources) plus
// the sigma-detection BFS, whose stretched simulation scales with the
// weight magnitude on weighted graphs.
func estGirthApx(c Class, n, m int, maxW int64) float64 {
	fn := float64(n)
	lg := math.Log2(fn + 2)
	if c == UndirectedWeighted {
		return 0.9*math.Sqrt(fn)*(lg+float64(maxW)) + 0.5*fn
	}
	return 1.8*math.Sqrt(fn)*lg + 1.2*fn
}

// Round ceilings: the budgets the oracle harness enforces. The shapes come
// from the theorems (O~(sqrt n + D), O~(n^{4/5} + D), O~(n^{2/3} + D), O~(n)
// for the exact engines), with polylog factors made explicit as powers of
// log2 n — plus, for the weighted approximations, a log2(maxW) factor for
// the weight-scaling levels the O~ hides under the weights-poly(n)
// assumption. Leading constants are calibrated empirically at roughly 4x
// the maximum observed over the generator's classes and shapes up to n = 96
// (internal/check's TestOraclesCleanOnGeneratedInstances and the mwcfuzz
// soak). An unintentional regression that pushes any algorithm past these
// budgets is a real performance bug.
const (
	ceilExact      = 8.0
	ceilUndirected = 8.0
	ceilDirected   = 8.0
	ceilUW         = 24.0
	ceilDW         = 24.0
)

// ceilTerms are the quantities every round ceiling is shaped from.
type ceilTerms struct {
	n, d   float64 // vertices and communication diameter
	lg, lw float64 // log2(n+2) and log2(maxW)+1
	maxW   float64
	eps    float64
}

// roundCeiling adapts a budget over ceilTerms to AlgorithmInfo.RoundCeiling,
// defaulting eps like the facade and clamping maxW to at least 1.
func roundCeiling(budget func(Class, ceilTerms) float64) func(Class, int, int, float64, int64) int {
	return func(c Class, n, d int, eps float64, maxW int64) int {
		if maxW < 1 {
			maxW = 1
		}
		fn := float64(n)
		t := ceilTerms{
			n: fn, d: float64(d),
			lg: math.Log2(fn + 2), lw: math.Log2(float64(maxW)) + 1,
			maxW: float64(maxW), eps: epsOrDefault(eps),
		}
		return int(budget(c, t)) + 1
	}
}

func ceilApprox(c Class, t ceilTerms) float64 {
	switch c {
	case Undirected:
		return ceilUndirected * (math.Sqrt(t.n)*t.lg*t.lg + t.d)
	case Directed:
		return ceilDirected * (math.Pow(t.n, 0.8)*t.lg*t.lg*t.lg + t.d)
	case UndirectedWeighted:
		return ceilUW * (math.Pow(t.n, 2.0/3)*t.lg*t.lg*(t.lw+t.lg)/t.eps + t.d)
	default: // DirectedWeighted
		return ceilDW * (math.Pow(t.n, 0.8)*t.lg*t.lg*(t.lw+t.lg)/t.eps + t.d)
	}
}

func ceilExactAPSP(_ Class, t ceilTerms) float64 {
	return ceilExact * (t.n*t.lg + t.d)
}

// ceilAgarwal: sqrt(n) batches of sqrt(n)-source runs plus a per-batch tree
// barrier; pruning only shrinks the real count below this.
func ceilAgarwal(_ Class, t ceilTerms) float64 {
	return ceilExact * (t.n*t.lg + math.Sqrt(t.n)*(t.d+t.lg) + t.d)
}

// ceilGirthApx: one sampled pass (the O(n) exchange dominates at harness
// sizes) plus the sigma-pruned stretched detection, whose radius is at most
// sigma*maxW (the sigma hop-nearest vertices are within sigma*maxW
// stretched distance). CheckMaxWeight keeps this budget small.
func ceilGirthApx(_ Class, t ceilTerms) float64 {
	return ceilUndirected * (math.Sqrt(t.n)*t.lg*t.lg + t.n + t.d +
		(math.Sqrt(t.n)+2)*t.maxW)
}

// Portfolio returns a copy of the registered algorithm descriptors.
func Portfolio() []AlgorithmInfo {
	out := make([]AlgorithmInfo, len(portfolio))
	copy(out, portfolio)
	return out
}

// AlgorithmByName looks an algorithm up by its registry name.
func AlgorithmByName(name string) (AlgorithmInfo, bool) {
	for _, a := range portfolio {
		if a.Name == name {
			return a, true
		}
	}
	return AlgorithmInfo{}, false
}

// AlgorithmNames lists the registered names, sorted.
func AlgorithmNames() []string {
	names := make([]string, len(portfolio))
	for i, a := range portfolio {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}

// RunAlgorithm executes the named portfolio algorithm on the graph. It is
// RunAlgorithmCtx with a background context.
func RunAlgorithm(name string, g *Graph, opts Options) (*Result, error) {
	return RunAlgorithmCtx(context.Background(), name, g, opts)
}

// RunAlgorithmCtx executes the named portfolio algorithm under a context.
// It is the one run path of the facade: unknown names, unsupported graph
// classes and invalid options return descriptive errors before any
// simulation runs. When ctx is canceled or its deadline passes, the
// in-flight simulation stops within one executed round and the call
// returns an error satisfying errors.Is against ctx.Err(); the returned
// Result is then non-nil with Found == false and carries the partial
// Rounds/Messages/Words of the aborted run, so callers can report how much
// work was executed.
func RunAlgorithmCtx(ctx context.Context, name string, g *Graph, opts Options) (*Result, error) {
	a, ok := AlgorithmByName(name)
	if !ok {
		return nil, fmt.Errorf("congestmwc: unknown algorithm %q (registered: %v)", name, AlgorithmNames())
	}
	if !a.ServesClass(g.class) {
		return nil, fmt.Errorf("congestmwc: algorithm %q does not serve class %s", name, g.class)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	net, err := congest.NewNetwork(g.g, opts.netOptions())
	if err != nil {
		return nil, fmt.Errorf("congestmwc: %w", err)
	}
	net.SetContext(ctx)
	if opts.observer != nil {
		net.SetObserver(opts.observer)
	}
	res, err := a.RunNetwork(net, g.class, opts)
	if err != nil {
		if !errors.Is(err, congest.ErrCanceled) {
			return nil, fmt.Errorf("congestmwc: %w", err)
		}
		res, err = &Result{}, fmt.Errorf("congestmwc: %w", err)
	}
	s := net.Stats()
	res.Rounds, res.Messages, res.Words = s.Rounds, s.Messages, s.Words
	return res, err
}
