// Package congestmwc is a CONGEST-model implementation of "Computing
// Minimum Weight Cycle in the CONGEST Model" (Manoharan and Ramachandran,
// PODC 2024): approximation algorithms and exact baselines for minimum
// weight cycle (MWC) on directed/undirected, weighted/unweighted graphs,
// executed on a faithful simulator of the synchronous CONGEST network
// model, together with multi-source shortest-path subroutines and the
// paper's lower-bound instance families.
//
// # Quick start
//
//	g, err := congestmwc.NewGraph(4, []congestmwc.Edge{
//		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0},
//	}, congestmwc.Directed)
//	res, err := congestmwc.ApproxMWC(g, congestmwc.Options{Seed: 1})
//	fmt.Println(res.Weight, res.Rounds)
//
// ApproxMWC dispatches on the graph class:
//
//   - directed unweighted: 2-approximation in O~(n^{4/5} + D) rounds
//     (Theorem 1.2.C),
//   - directed weighted: (2+eps)-approximation in O~(n^{4/5} + D)
//     (Theorem 1.2.D),
//   - undirected unweighted: (2 - 1/g)-approximation of the girth in
//     O~(sqrt(n) + D) (Theorem 1.3.B),
//   - undirected weighted: (2+eps)-approximation in O~(n^{2/3} + D)
//     (Theorem 1.4.C).
//
// ExactMWC runs the O~(n)-round APSP-based exact baselines. KSourceBFS and
// KSourceSSSP expose the Theorem 1.6 multi-source subroutines. All results
// report the number of CONGEST rounds consumed, the measure the paper
// bounds.
package congestmwc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

// Inf is the distance value reported for unreachable pairs.
const Inf = seq.Inf

// Edge is an input edge; Weight is ignored (treated as 1) for unweighted
// graph classes.
type Edge struct {
	From, To int
	Weight   int64
}

// Class selects the graph class.
type Class int

// Graph classes.
const (
	// Undirected is the undirected unweighted class (girth).
	Undirected Class = iota + 1
	// Directed is the directed unweighted class.
	Directed
	// UndirectedWeighted is the undirected weighted class.
	UndirectedWeighted
	// DirectedWeighted is the directed weighted class.
	DirectedWeighted
)

func (c Class) String() string {
	switch c {
	case Undirected:
		return "undirected"
	case Directed:
		return "directed"
	case UndirectedWeighted:
		return "undirected-weighted"
	case DirectedWeighted:
		return "directed-weighted"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ErrNoCycle is returned by MWC computations on acyclic graphs.
var ErrNoCycle = errors.New("congestmwc: graph has no cycle")

// Graph is an immutable input graph. Construct with NewGraph.
type Graph struct {
	g     *graph.Graph
	class Class
}

// NewGraph validates the edge list and builds a graph of the given class.
// Vertices are 0..n-1; self loops and duplicate edges are rejected, and the
// communication network (the undirected closure) must be connected for any
// algorithm to run on it.
func NewGraph(n int, edges []Edge, class Class) (*Graph, error) {
	var opts graph.Options
	switch class {
	case Undirected:
	case Directed:
		opts.Directed = true
	case UndirectedWeighted:
		opts.Weighted = true
	case DirectedWeighted:
		opts.Directed = true
		opts.Weighted = true
	default:
		return nil, fmt.Errorf("congestmwc: unknown class %d", int(class))
	}
	ge := make([]graph.Edge, len(edges))
	for i, e := range edges {
		ge[i] = graph.Edge{From: e.From, To: e.To, Weight: e.Weight}
	}
	g, err := graph.Build(n, ge, opts)
	if err != nil {
		return nil, fmt.Errorf("congestmwc: %w", err)
	}
	return &Graph{g: g, class: class}, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.g.N() }

// M returns the number of edges.
func (g *Graph) M() int { return g.g.M() }

// Class returns the graph class.
func (g *Graph) Class() Class { return g.class }

// Connected reports whether the communication network is connected.
func (g *Graph) Connected() bool { return g.g.ConnectedComm() }

// Options configures a simulated CONGEST execution.
type Options struct {
	// Seed drives all randomness (sampling, delays, tie breaking). The
	// same seed reproduces the exact same execution.
	Seed int64
	// Bandwidth is the per-round word capacity of each link (default 4,
	// the concrete stand-in for one Theta(log n)-bit message).
	Bandwidth int
	// Parallel runs node handlers on worker goroutines (identical results,
	// uses multiple cores).
	Parallel bool
	// Workers bounds the parallel engine's worker count (default: GOMAXPROCS).
	// Setting it without Parallel is a validation error.
	Workers int
	// Stepwise disables event-driven round skipping and iterates every
	// synchronous round one by one, including empty ones. Results, Rounds
	// and Stats are identical either way; this is a debug/reference mode
	// whose wall clock is proportional to elapsed rounds instead of events.
	Stepwise bool
	// Eps is the accuracy parameter for weighted approximations (default
	// 0.25). Ignored for unweighted classes.
	Eps float64
	// SampleFactor tunes the Theta(log n) sampling constants (default 3);
	// raise it to push failure probabilities down on small graphs.
	SampleFactor float64

	// observer, when set via WithObserver, is installed on the network of
	// the run. Module-internal: its type lives in internal/congest.
	observer congest.Observer
}

// Validate checks the options and returns a descriptive error for values
// that would otherwise be silently clamped or produce a nonsensical run.
// The zero value of every field selects its documented default and is
// always valid. ApproxMWC and ExactMWC (and their Ctx variants) validate
// before running; call Validate directly to fail fast at admission time.
func (o Options) Validate() error {
	if o.Bandwidth < 0 {
		return fmt.Errorf("congestmwc: negative bandwidth %d (use 0 for the default of 4 words/round)", o.Bandwidth)
	}
	if math.IsNaN(o.Eps) || math.IsInf(o.Eps, 0) || o.Eps < 0 || o.Eps > 4 {
		return fmt.Errorf("congestmwc: eps %v outside [0, 4] (0 selects the default 0.25; the (2+eps) guarantee is vacuous beyond 4)", o.Eps)
	}
	if math.IsNaN(o.SampleFactor) || math.IsInf(o.SampleFactor, 0) || o.SampleFactor < 0 {
		return fmt.Errorf("congestmwc: sample factor %v must be >= 0 (0 selects the default 3)", o.SampleFactor)
	}
	if o.Workers < 0 {
		return fmt.Errorf("congestmwc: negative worker count %d (use 0 for GOMAXPROCS)", o.Workers)
	}
	if o.Workers > 0 && !o.Parallel {
		return fmt.Errorf("congestmwc: Workers=%d conflicts with Parallel=false (worker goroutines exist only in the parallel engine; set Parallel too, or drop Workers)", o.Workers)
	}
	return nil
}

// WithObserver returns a copy of o that installs obs as the simulation
// observer of the run. The observer interfaces live in internal/congest, so
// this extension point is usable only from inside the module (the jobs
// service and the CLIs attach internal/obs collectors through it); the
// public surface of Options is unchanged.
func (o Options) WithObserver(obs congest.Observer) Options {
	o.observer = obs
	return o
}

func (o Options) netOptions() congest.Options {
	return congest.Options{
		Bandwidth: o.Bandwidth,
		Seed:      o.Seed,
		Parallel:  o.Parallel,
		Workers:   o.Workers,
		Stepwise:  o.Stepwise,
	}
}

// Result reports an MWC computation.
type Result struct {
	// Weight is the weight of the cycle found (only valid if Found).
	Weight int64
	// Found reports whether any cycle was found.
	Found bool
	// Rounds is the number of CONGEST rounds the algorithm consumed — the
	// complexity measure of the model.
	Rounds int
	// Messages and Words count the total traffic (instrumentation).
	Messages, Words int
	// Cycle is a witness vertex sequence (closing edge implicit) when the
	// algorithm constructed one: always for ExactMWC (where its weight
	// equals Weight), and for ApproxMWC on every graph class whenever the
	// predecessor-pointer reconstruction succeeds (its verified weight is
	// then at most Weight). Nil otherwise.
	Cycle []int
}

// ApproxMWC computes an approximate minimum weight cycle with the paper's
// sublinear-round algorithm for the graph's class (see the package
// documentation for the factor and round complexity per class). The
// reported weight is always the weight of a real cycle of the graph (never
// an underestimate); Found is false on acyclic graphs. It is
// ApproxMWCCtx with a background context.
func ApproxMWC(g *Graph, opts Options) (*Result, error) {
	return ApproxMWCCtx(context.Background(), g, opts)
}

// ApproxMWCCtx is ApproxMWC under a context, with the cancellation and
// partial-progress semantics of RunAlgorithmCtx.
func ApproxMWCCtx(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	return RunAlgorithmCtx(ctx, AlgoNameApprox, g, opts)
}

// ExactMWC computes the exact minimum weight cycle with the O~(n)-round
// APSP-based baseline. It is ExactMWCCtx with a background context.
func ExactMWC(g *Graph, opts Options) (*Result, error) {
	return ExactMWCCtx(context.Background(), g, opts)
}

// ExactMWCCtx is ExactMWC under a context, with the cancellation and
// partial-progress semantics of RunAlgorithmCtx.
func ExactMWCCtx(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	return RunAlgorithmCtx(ctx, AlgoNameExact, g, opts)
}

// VerifyCycle checks that the vertex sequence (closing edge implicit) is a
// simple cycle of the graph and returns its weight. Use it to validate
// witness cycles.
func (g *Graph) VerifyCycle(cycle []int) (int64, error) {
	w, err := seq.VerifyCycle(g.g, cycle)
	if err != nil {
		return 0, fmt.Errorf("congestmwc: %w", err)
	}
	return w, nil
}

// ReferenceMWC computes the exact MWC sequentially (no simulation) — the
// ground truth used to evaluate approximation ratios. It returns ErrNoCycle
// for acyclic graphs.
func ReferenceMWC(g *Graph) (int64, error) {
	w, ok := seq.MWC(g.g)
	if !ok {
		return 0, ErrNoCycle
	}
	return w, nil
}

// Edges returns a copy of the graph's edge list (weights are 1 for
// unweighted classes).
func (g *Graph) Edges() []Edge {
	inner := g.g.Edges()
	out := make([]Edge, len(inner))
	for i, e := range inner {
		out[i] = Edge{From: e.From, To: e.To, Weight: e.Weight}
	}
	return out
}
