package check

import (
	"context"
	"errors"
	"fmt"

	"congestmwc"
)

// RunOptions configures one differential run of an instance.
type RunOptions struct {
	// Seed drives the simulated executions (default 1).
	Seed int64
	// SampleFactor raises the Theta(log n) sampling constants; the harness
	// default of 6 pushes the Monte Carlo failure probability far down on
	// the small instances the fuzzer favours.
	SampleFactor float64
	// Eps is the weighted-approximation accuracy parameter (default 0.25,
	// matching the facade default; the ratio oracle uses the same value).
	Eps float64
	// Algos names the portfolio algorithms to run (default: every
	// registered one). Each runs on the instances inside its range: the
	// classes it serves, up to its CheckMaxWeight.
	Algos []string
	// Parallel also runs the approximation on the parallel engine and
	// checks engine agreement (only when "approx" is among Algos).
	Parallel bool
	// Cancel probes cancellation of the approximation during the Init
	// phase: an already-cancelled context must surface ErrCanceled, never
	// nil (only when "approx" is among Algos).
	Cancel bool
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SampleFactor == 0 {
		o.SampleFactor = 6
	}
	if o.Eps == 0 {
		o.Eps = 0.25
	}
	if o.Algos == nil {
		o.Algos = congestmwc.AlgorithmNames()
	}
	return o
}

// AlgoRun is one algorithm's run on an instance.
type AlgoRun struct {
	Res *congestmwc.Result
	Err error
}

// Outcome is everything one differential run produced; the oracles judge
// it.
type Outcome struct {
	Inst Instance
	Opts RunOptions

	// Ref/RefFound are the sequential ground truth (internal/seq).
	Ref      int64
	RefFound bool
	// Diameter is the communication-graph diameter, the +D term of every
	// round bound.
	Diameter int

	// Runs holds one entry per algorithm of Opts.Algos that ran on the
	// instance, keyed by registry name. Algorithms outside their range are
	// absent.
	Runs map[string]AlgoRun
	// Parallel is the parallel-engine run of the approximation (same
	// seed), when RunOptions.Parallel was set.
	Parallel AlgoRun
	// Cancel is the approximation run under an already-cancelled context,
	// when RunOptions.Cancel was set.
	Cancel AlgoRun
}

// Violation is one oracle failure on one instance.
type Violation struct {
	Oracle string
	Detail string
}

func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

// Run executes the differential run: the sequential reference, every
// requested algorithm inside its range, and the approximation's parallel
// engine and cancellation probes when asked. It errors only when the
// instance itself is unusable (fails to build, or disconnected) or an
// algorithm name is not registered.
func Run(inst Instance, opts RunOptions) (*Outcome, error) {
	opts = opts.withDefaults()
	g, err := inst.Graph()
	if err != nil {
		return nil, fmt.Errorf("check: instance does not build: %w", err)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("check: instance communication graph is disconnected")
	}
	out := &Outcome{Inst: inst, Opts: opts, Runs: make(map[string]AlgoRun, len(opts.Algos))}
	ig, err := inst.internalGraph()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	out.Diameter, _ = ig.CommDiameter()

	ref, err := congestmwc.ReferenceMWC(g)
	if err != nil && !errors.Is(err, congestmwc.ErrNoCycle) {
		return nil, fmt.Errorf("check: reference: %w", err)
	}
	out.Ref, out.RefFound = ref, err == nil

	ro := congestmwc.Options{Seed: opts.Seed, SampleFactor: opts.SampleFactor, Eps: opts.Eps}
	for _, name := range opts.Algos {
		a, ok := congestmwc.AlgorithmByName(name)
		if !ok {
			return nil, fmt.Errorf("check: unknown algorithm %q (registered: %v)", name, congestmwc.AlgorithmNames())
		}
		if !inRange(a, inst) {
			continue
		}
		var r AlgoRun
		r.Res, r.Err = congestmwc.RunAlgorithm(name, g, ro)
		out.Runs[name] = r
	}
	if _, ok := out.Runs[congestmwc.AlgoNameApprox]; ok {
		if opts.Parallel {
			po := ro
			po.Parallel = true
			out.Parallel.Res, out.Parallel.Err = congestmwc.ApproxMWC(g, po)
		}
		if opts.Cancel {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			out.Cancel.Res, out.Cancel.Err = congestmwc.ApproxMWCCtx(ctx, g, ro)
		}
	}
	return out, nil
}

// inRange reports whether the harness runs algorithm a on the instance.
func inRange(a congestmwc.AlgorithmInfo, inst Instance) bool {
	return a.ServesClass(inst.Class) && (a.CheckMaxWeight <= 0 || inst.MaxWeight() <= a.CheckMaxWeight)
}

// CheckInstance is Run followed by Check.
func CheckInstance(inst Instance, opts RunOptions) ([]Violation, error) {
	out, err := Run(inst, opts)
	if err != nil {
		return nil, err
	}
	return Check(out), nil
}

// expectedReject reports whether an error of algorithm a on this instance
// is documented behaviour rather than a bug: algorithms registered with
// RejectsZeroWeight refuse weighted weight-0 edges descriptively.
func expectedReject(a congestmwc.AlgorithmInfo, inst Instance) bool {
	return a.RejectsZeroWeight && inst.Weighted() && inst.HasZeroWeight()
}

// Oracle is one named invariant over a run's Outcome. Check returns "" on
// pass and a violation detail otherwise.
type Oracle struct {
	Name  string
	Check func(*Outcome) string
}

// algoOracles are the generic per-algorithm invariants, named
// "<algo>-<kind>". Each judges the algorithm's registry entry and its run;
// check functions only see runs that exist.
var algoOracles = []struct {
	kind  string
	check func(out *Outcome, a congestmwc.AlgorithmInfo, r AlgoRun) string
}{
	{"error", oracleError},
	{"found", oracleFound},
	{"sound", oracleSound},
	{"ratio", oracleRatio},
	{"witness", oracleWitness},
	{"rounds", oracleRounds},
}

// Oracles returns the full oracle registry, in evaluation order: the
// generic family for every registered algorithm, then the approximation's
// engine and cancellation probes and the planner check.
func Oracles() []Oracle {
	var list []Oracle
	for _, a := range congestmwc.Portfolio() {
		for _, o := range algoOracles {
			a, o := a, o
			list = append(list, Oracle{a.Name + "-" + o.kind, func(out *Outcome) string {
				r, ok := out.Runs[a.Name]
				if !ok {
					return ""
				}
				return o.check(out, a, r)
			}})
		}
	}
	return append(list,
		Oracle{"engines-agree", oracleEnginesAgree},
		Oracle{"cancel-init", oracleCancelInit},
		Oracle{"planner-sound", oraclePlannerSound},
	)
}

// Check evaluates every registered oracle against the outcome.
func Check(out *Outcome) []Violation {
	var vs []Violation
	for _, o := range Oracles() {
		if detail := o.Check(out); detail != "" {
			vs = append(vs, Violation{Oracle: o.Name, Detail: detail})
		}
	}
	return vs
}

func oracleError(out *Outcome, a congestmwc.AlgorithmInfo, r AlgoRun) string {
	if r.Err == nil || expectedReject(a, out.Inst) {
		return ""
	}
	return fmt.Sprintf("%s failed on a valid instance: %v", a.Name, r.Err)
}

func oracleFound(out *Outcome, a congestmwc.AlgorithmInfo, r AlgoRun) string {
	if r.Err != nil || r.Res.Found == out.RefFound {
		return ""
	}
	return fmt.Sprintf("%s Found=%v but reference Found=%v (ref weight %d)",
		a.Name, r.Res.Found, out.RefFound, out.Ref)
}

func oracleSound(out *Outcome, a congestmwc.AlgorithmInfo, r AlgoRun) string {
	if r.Err != nil || !r.Res.Found || !out.RefFound || r.Res.Weight >= out.Ref {
		return ""
	}
	return fmt.Sprintf("%s weight %d below the true MWC %d (reported weight must be a real cycle's)",
		a.Name, r.Res.Weight, out.Ref)
}

func oracleRatio(out *Outcome, a congestmwc.AlgorithmInfo, r AlgoRun) string {
	if r.Err != nil || !r.Res.Found || !out.RefFound {
		return ""
	}
	if bound := a.Bound(out.Inst.Class, out.Ref, out.Opts.Eps); r.Res.Weight > bound {
		return fmt.Sprintf("%s weight %d exceeds the registered bound %d (true MWC %d, class %s)",
			a.Name, r.Res.Weight, bound, out.Ref, out.Inst.Class)
	}
	return ""
}

// oracleWitness validates the witness cycle against the instance. Exact
// algorithms must produce one whenever they find a cycle, weighing exactly
// the reported weight; approximations may omit it, but a witness they
// produce may weigh no more than the reported weight.
func oracleWitness(out *Outcome, a congestmwc.AlgorithmInfo, r AlgoRun) string {
	if r.Err != nil {
		return ""
	}
	res := r.Res
	if res.Cycle == nil {
		if a.Exact && res.Found {
			return fmt.Sprintf("%s found a cycle but produced no witness", a.Name)
		}
		return ""
	}
	g, err := out.Inst.Graph()
	if err != nil {
		return "" // Run already rejected unbuildable instances
	}
	w, err := g.VerifyCycle(res.Cycle)
	switch {
	case err != nil:
		return fmt.Sprintf("witness %v is not a simple cycle: %v", res.Cycle, err)
	case a.Exact && w != res.Weight:
		return fmt.Sprintf("%s witness %v weighs %d, result claims %d", a.Name, res.Cycle, w, res.Weight)
	case w > res.Weight:
		return fmt.Sprintf("%s witness %v weighs %d, more than the reported weight %d", a.Name, res.Cycle, w, res.Weight)
	}
	return ""
}

func oracleRounds(out *Outcome, a congestmwc.AlgorithmInfo, r AlgoRun) string {
	if r.Err != nil {
		return ""
	}
	in := out.Inst
	if ceiling := a.RoundCeiling(in.Class, in.N, out.Diameter, out.Opts.Eps, in.MaxWeight()); r.Res.Rounds > ceiling {
		return fmt.Sprintf("%s took %d rounds, over the theorem-shaped ceiling %d (n=%d, D=%d, maxW=%d)",
			a.Name, r.Res.Rounds, ceiling, in.N, out.Diameter, in.MaxWeight())
	}
	return ""
}

func oracleEnginesAgree(out *Outcome) string {
	seq, ok := out.Runs[congestmwc.AlgoNameApprox]
	if !out.Opts.Parallel || !ok {
		return ""
	}
	par := out.Parallel
	if (seq.Err == nil) != (par.Err == nil) {
		return fmt.Sprintf("engines disagree on failure: sequential err=%v, parallel err=%v",
			seq.Err, par.Err)
	}
	if seq.Err != nil {
		return ""
	}
	a, p := seq.Res, par.Res
	if a.Found != p.Found || a.Weight != p.Weight || a.Rounds != p.Rounds ||
		a.Messages != p.Messages || a.Words != p.Words {
		return fmt.Sprintf("sequential and parallel engines diverge: seq={w=%d found=%v r=%d m=%d wd=%d} par={w=%d found=%v r=%d m=%d wd=%d}",
			a.Weight, a.Found, a.Rounds, a.Messages, a.Words,
			p.Weight, p.Found, p.Rounds, p.Messages, p.Words)
	}
	return ""
}

func oracleCancelInit(out *Outcome) string {
	if _, ok := out.Runs[congestmwc.AlgoNameApprox]; !out.Opts.Cancel || !ok {
		return ""
	}
	c := out.Cancel
	if c.Err == nil {
		return "run under an already-cancelled context returned nil error (lost cancellation in the Init phase)"
	}
	if !errors.Is(c.Err, context.Canceled) {
		approx, _ := congestmwc.AlgorithmByName(congestmwc.AlgoNameApprox)
		if expectedReject(approx, out.Inst) {
			return "" // input validation may legitimately fire before the first round
		}
		return fmt.Sprintf("cancelled run's error %v does not wrap context.Canceled", c.Err)
	}
	if c.Res == nil {
		return "cancelled run returned no partial result"
	}
	if c.Res.Found {
		return "cancelled run claims Found=true"
	}
	return ""
}

// oraclePlannerSound checks the guarantee-driven planner on the instance's
// features: for every canonical guarantee it must either return a
// registered algorithm whose bound satisfies the request on this class (and
// which accepts the instance), or reject with the one documented
// unsatisfiable combination (girth off the undirected unweighted class).
// The planner is a pure function of the features, so this oracle runs on
// every instance at no simulation cost.
func oraclePlannerSound(out *Outcome) string {
	f := congestmwc.Features{
		Class:         out.Inst.Class,
		N:             out.Inst.N,
		M:             len(out.Inst.Edges),
		MaxWeight:     out.Inst.MaxWeight(),
		HasZeroWeight: out.Inst.Weighted() && out.Inst.HasZeroWeight(),
	}
	guarantees := []congestmwc.Guarantee{
		congestmwc.GuaranteeExact, congestmwc.GuaranteeGirth,
		congestmwc.GuaranteeTwo, congestmwc.GuaranteeTwoEps,
	}
	for _, q := range guarantees {
		d, err := congestmwc.PlanFeatures(f, q, congestmwc.Options{Eps: out.Opts.Eps})
		if err != nil {
			if q == congestmwc.GuaranteeGirth && f.Class != congestmwc.Undirected {
				continue // the documented unsatisfiable combination
			}
			return fmt.Sprintf("planner rejected satisfiable guarantee %q on %s: %v", q, f.Class, err)
		}
		a, ok := congestmwc.AlgorithmByName(d.Algorithm)
		if !ok {
			return fmt.Sprintf("planner chose unregistered algorithm %q for %q", d.Algorithm, q)
		}
		if !a.ServesClass(f.Class) {
			return fmt.Sprintf("planner chose %q for %q but it does not serve %s", d.Algorithm, q, f.Class)
		}
		if f.HasZeroWeight && a.RejectsZeroWeight {
			return fmt.Sprintf("planner chose %q for %q on a zero-weight instance it rejects", d.Algorithm, q)
		}
		if q != congestmwc.GuaranteeGirth {
			if got, want := a.Ratio(f.Class, out.Opts.Eps), q.Ratio(out.Opts.Eps); got > want+1e-9 {
				return fmt.Sprintf("planner chose %q with ratio %v, weaker than requested %q (%v)",
					d.Algorithm, got, q, want)
			}
		} else if !a.Exact && !a.GirthFactor {
			return fmt.Sprintf("planner chose %q for the girth guarantee without exactness or the girth factor", d.Algorithm)
		}
	}
	return ""
}
