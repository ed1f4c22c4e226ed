// Package harness regenerates the paper's evaluation artefacts: one
// experiment per row of Table 1 (the paper's only table; it has no
// figures), as indexed in DESIGN.md.
//
// For upper-bound rows an experiment sweeps the instance size n, runs the
// row's algorithm on generated workloads, records the CONGEST rounds and
// the approximation ratio against the sequential ground truth, and fits the
// round-complexity exponent (slope of log rounds vs log n) next to the
// claimed exponent. For lower-bound rows it builds the reduction instances,
// verifies the weight gap, and measures the words crossing the Alice/Bob
// cut while the exact algorithm decides set disjointness, reporting the
// implied round lower bound.
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"congestmwc/internal/congest"
	"congestmwc/internal/dirmwc"
	"congestmwc/internal/exact"
	"congestmwc/internal/gen"
	"congestmwc/internal/girth"
	"congestmwc/internal/ksssp"
	"congestmwc/internal/lb"
	"congestmwc/internal/obs"
	"congestmwc/internal/seq"
	"congestmwc/internal/wmwc"
)

// Experiment identifies one Table 1 row reproduction (see DESIGN.md's
// experiment index).
type Experiment string

// Upper-bound experiments.
const (
	ExpDirectedExact    Experiment = "T1-DIR-EX"
	ExpDirected2Approx  Experiment = "T1-DIR-2APX"
	ExpDirectedW2Approx Experiment = "T1-DIR-W2APX"
	ExpUndirWExact      Experiment = "T1-UW-EX"
	ExpUndirW2Approx    Experiment = "T1-UW-2APX"
	ExpGirthExact       Experiment = "T1-GIRTH-EX"
	ExpGirthApprox      Experiment = "T1-GIRTH-2APX"
	ExpGirthPRT         Experiment = "T1-GIRTH-PRT"
	ExpKSourceBFS       Experiment = "T6-KBFS"
	ExpKSourceSSSP      Experiment = "T6-KSSSP"
)

// Lower-bound experiments.
const (
	ExpDirectedLB2 Experiment = "T1-DIR-LB2"
	ExpDirectedLBA Experiment = "T1-DIR-LBA"
	ExpUndirWLB2   Experiment = "T1-UW-LB2"
	ExpGirthLBA    Experiment = "T1-GIRTH-LBA"
)

// UpperBound describes an upper-bound experiment's claim and workload.
type UpperBound struct {
	ID Experiment
	// Claim is the paper's round bound, e.g. "O~(n^{4/5} + D)".
	Claim string
	// Exponent is the claimed polynomial exponent of n.
	Exponent float64
	// MaxRatio is the claimed approximation factor (1 for exact rows).
	MaxRatio float64
	// Run builds a workload of size n and runs the row's algorithm,
	// returning measured rounds and the approximation ratio (1 for exact).
	Run func(n int, seed int64) (RunResult, error)
}

// RunResult is one measured execution. Beyond the round count it carries
// the communication-cost figures recorded by the obs.Collector every
// harness run now threads through the network: total messages and words,
// and the peak single-round single-link word count (realized congestion).
type RunResult struct {
	N             int
	Rounds        int
	Messages      int
	Words         int
	PeakLinkWords int
	Ratio         float64
}

// UpperBounds returns the registry of upper-bound experiments keyed by ID,
// with the default Theta(log n) sampling constant.
func UpperBounds() map[Experiment]UpperBound {
	return UpperBoundsWithFactor(0)
}

// UpperBoundsWithFactor is UpperBounds with an explicit sampling constant
// (<= 0 selects each algorithm's default of 3). Smaller factors leave the
// saturated-sampling regime earlier on small instances, at the cost of a
// larger failure probability; see EXPERIMENTS.md.
func UpperBoundsWithFactor(factor float64) map[Experiment]UpperBound {
	const eps = 0.25
	return map[Experiment]UpperBound{
		ExpDirectedExact: {
			ID: ExpDirectedExact, Claim: "O~(n)", Exponent: 1.0, MaxRatio: 1,
			Run: func(n int, seed int64) (RunResult, error) {
				return runMWC(n, seed, gen.Random{N: n, P: pick(n), Directed: true, Seed: seed},
					func(net *congest.Network) (int64, bool, error) {
						r, err := exact.MWC(net, exact.Spec{PaperSchedule: true})
						if err != nil {
							return 0, false, err
						}
						return r.Weight, r.Found, nil
					})
			},
		},
		ExpDirected2Approx: {
			ID: ExpDirected2Approx, Claim: "O~(n^{4/5} + D)", Exponent: 0.8, MaxRatio: 2,
			Run: func(n int, seed int64) (RunResult, error) {
				return runMWC(n, seed, gen.Random{N: n, P: pick(n), Directed: true, Seed: seed},
					func(net *congest.Network) (int64, bool, error) {
						r, err := dirmwc.Run(net, dirmwc.Spec{SampleFactor: factor, PaperSchedule: true})
						if err != nil {
							return 0, false, err
						}
						return r.Weight, r.Found, nil
					})
			},
		},
		ExpDirectedW2Approx: {
			ID: ExpDirectedW2Approx, Claim: "O~(n^{4/5} + D)", Exponent: 0.8, MaxRatio: 2 + eps,
			Run: func(n int, seed int64) (RunResult, error) {
				return runMWC(n, seed,
					gen.Random{N: n, P: pick(n), Directed: true, Weighted: true, MaxW: 32, Seed: seed},
					func(net *congest.Network) (int64, bool, error) {
						r, err := wmwc.Run(net, wmwc.Spec{Eps: eps, SampleFactor: factor, PaperSchedule: true})
						if err != nil {
							return 0, false, err
						}
						return r.Weight, r.Found, nil
					})
			},
		},
		ExpUndirWExact: {
			ID: ExpUndirWExact, Claim: "O~(n)", Exponent: 1.0, MaxRatio: 1,
			Run: func(n int, seed int64) (RunResult, error) {
				return runMWC(n, seed,
					gen.Random{N: n, P: pick(n), Weighted: true, MaxW: 32, Seed: seed},
					func(net *congest.Network) (int64, bool, error) {
						r, err := exact.MWC(net, exact.Spec{PaperSchedule: true})
						if err != nil {
							return 0, false, err
						}
						return r.Weight, r.Found, nil
					})
			},
		},
		ExpUndirW2Approx: {
			ID: ExpUndirW2Approx, Claim: "O~(n^{2/3} + D)", Exponent: 2.0 / 3, MaxRatio: 2 + eps,
			Run: func(n int, seed int64) (RunResult, error) {
				return runMWC(n, seed,
					gen.Random{N: n, P: pick(n), Weighted: true, MaxW: 32, Seed: seed},
					func(net *congest.Network) (int64, bool, error) {
						r, err := wmwc.Run(net, wmwc.Spec{Eps: eps, SampleFactor: factor, PaperSchedule: true})
						if err != nil {
							return 0, false, err
						}
						return r.Weight, r.Found, nil
					})
			},
		},
		ExpGirthExact: {
			ID: ExpGirthExact, Claim: "O(n)", Exponent: 1.0, MaxRatio: 1,
			Run: func(n int, seed int64) (RunResult, error) {
				return runMWC(n, seed, gen.Random{N: n, P: pick(n), Seed: seed},
					func(net *congest.Network) (int64, bool, error) {
						r, err := exact.MWC(net, exact.Spec{PaperSchedule: true})
						if err != nil {
							return 0, false, err
						}
						return r.Weight, r.Found, nil
					})
			},
		},
		ExpGirthApprox: {
			ID: ExpGirthApprox, Claim: "O~(sqrt(n) + D)", Exponent: 0.5, MaxRatio: 2,
			Run: func(n int, seed int64) (RunResult, error) {
				return runMWC(n, seed, gen.Random{N: n, P: pick(n), Seed: seed},
					func(net *congest.Network) (int64, bool, error) {
						r, err := girth.Run(net, girth.Spec{SampleFactor: factor, PaperSchedule: true})
						if err != nil {
							return 0, false, err
						}
						return r.Weight, r.Found, nil
					})
			},
		},
		ExpGirthPRT: {
			ID: ExpGirthPRT, Claim: "[44]-style baseline (simplified; see girth.RunPRT doc)",
			Exponent: 1.0, MaxRatio: 2,
			Run: func(n int, seed int64) (RunResult, error) {
				return runMWC(n, seed, gen.Random{N: n, P: pick(n), Seed: seed},
					func(net *congest.Network) (int64, bool, error) {
						r, err := girth.RunPRT(net, girth.Spec{SampleFactor: factor})
						if err != nil {
							return 0, false, err
						}
						return r.Weight, r.Found, nil
					})
			},
		},
		ExpKSourceBFS: {
			ID: ExpKSourceBFS, Claim: "O~(sqrt(nk) + D), k=n^{1/2}: O~(n^{3/4})",
			Exponent: 0.75, MaxRatio: 1,
			Run: runKSourceBFS,
		},
		ExpKSourceSSSP: {
			ID: ExpKSourceSSSP, Claim: "O~(sqrt(nk) + D), k=n^{1/2}: O~(n^{3/4})",
			Exponent: 0.75, MaxRatio: 1 + eps,
			Run: runKSourceSSSP,
		},
	}
}

// pick returns an edge probability keeping random instances sparse
// (expected degree ~4 beyond the backbone).
func pick(n int) float64 {
	p := 4.0 / float64(n)
	if p > 1 {
		p = 1
	}
	return p
}

// meter attaches a lean collector (totals and congestion peaks only — no
// series, tag or link maps) so every harness run reports communication
// cost at negligible overhead.
func meter(net *congest.Network) *obs.Collector {
	col := &obs.Collector{NoSeries: true, NoPerTag: true, NoPerLink: true}
	net.SetObserver(col)
	return col
}

func fill(res *RunResult, net *congest.Network, col *obs.Collector) {
	s := net.Stats()
	res.Rounds = s.Rounds
	res.Messages = s.Messages
	res.Words = s.Words
	res.PeakLinkWords = col.PeakLinkWords
}

func runMWC(n int, seed int64, r gen.Random, algo func(*congest.Network) (int64, bool, error)) (RunResult, error) {
	g, err := r.Graph()
	if err != nil {
		return RunResult{}, err
	}
	net, err := congest.NewNetwork(g, congest.Options{Seed: seed + 1})
	if err != nil {
		return RunResult{}, err
	}
	col := meter(net)
	w, found, err := algo(net)
	if err != nil {
		return RunResult{}, err
	}
	truth, ok := seq.MWC(g)
	ratio := math.NaN()
	switch {
	case ok && found:
		ratio = float64(w) / float64(truth)
	case !ok && !found:
		ratio = 1
	}
	out := RunResult{N: n, Ratio: ratio}
	fill(&out, net, col)
	return out, nil
}

func runKSourceBFS(n int, seed int64) (RunResult, error) {
	g, err := (gen.Random{N: n, P: pick(n), Directed: true, Seed: seed}).Graph()
	if err != nil {
		return RunResult{}, err
	}
	k := int(math.Ceil(math.Sqrt(float64(n))))
	sources := spread(n, k)
	net, err := congest.NewNetwork(g, congest.Options{Seed: seed + 1})
	if err != nil {
		return RunResult{}, err
	}
	col := meter(net)
	res, err := ksssp.Run(net, ksssp.Spec{Sources: sources})
	if err != nil {
		return RunResult{}, err
	}
	ratio := 1.0
	for i, s := range sources {
		want := seq.BFS(g, s)
		for v := 0; v < n; v++ {
			if res.Dist[v][i] != want[v] {
				ratio = math.Inf(1) // exactness violated
			}
		}
	}
	out := RunResult{N: n, Ratio: ratio}
	fill(&out, net, col)
	return out, nil
}

func runKSourceSSSP(n int, seed int64) (RunResult, error) {
	const eps = 0.25
	g, err := (gen.Random{N: n, P: pick(n), Directed: true, Weighted: true, MaxW: 32, Seed: seed}).Graph()
	if err != nil {
		return RunResult{}, err
	}
	k := int(math.Ceil(math.Sqrt(float64(n))))
	sources := spread(n, k)
	net, err := congest.NewNetwork(g, congest.Options{Seed: seed + 1})
	if err != nil {
		return RunResult{}, err
	}
	col := meter(net)
	res, err := ksssp.Run(net, ksssp.Spec{Sources: sources, Eps: eps})
	if err != nil {
		return RunResult{}, err
	}
	worst := 1.0
	for i, s := range sources {
		want := seq.Dijkstra(g, s)
		for v := 0; v < n; v++ {
			if want[v] >= seq.Inf || want[v] == 0 {
				continue
			}
			r := float64(res.Dist[v][i]) / float64(want[v])
			if r > worst {
				worst = r
			}
		}
	}
	out := RunResult{N: n, Ratio: worst}
	fill(&out, net, col)
	return out, nil
}

func spread(n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// SweepResult aggregates an upper-bound experiment over a size sweep.
type SweepResult struct {
	ID             Experiment
	Claim          string
	ClaimExponent  float64
	Sizes          []int
	MeanRounds     []float64
	MeanWords      []float64
	PeakLinkWords  []int // worst realized per-round link congestion per size
	WorstRatio     float64
	FittedExponent float64
}

// Sweep runs the experiment at each size with `reps` seeds and fits the
// log-log slope of mean rounds against n.
func Sweep(ub UpperBound, sizes []int, reps int, baseSeed int64) (*SweepResult, error) {
	out := &SweepResult{
		ID: ub.ID, Claim: ub.Claim, ClaimExponent: ub.Exponent,
		Sizes: append([]int(nil), sizes...),
	}
	for _, n := range sizes {
		total, totalWords, peak := 0.0, 0.0, 0
		for rep := 0; rep < reps; rep++ {
			res, err := ub.Run(n, baseSeed+int64(rep)*101+int64(n))
			if err != nil {
				return nil, fmt.Errorf("harness %s n=%d rep=%d: %w", ub.ID, n, rep, err)
			}
			total += float64(res.Rounds)
			totalWords += float64(res.Words)
			if res.PeakLinkWords > peak {
				peak = res.PeakLinkWords
			}
			if !math.IsNaN(res.Ratio) && res.Ratio > out.WorstRatio {
				out.WorstRatio = res.Ratio
			}
		}
		out.MeanRounds = append(out.MeanRounds, total/float64(reps))
		out.MeanWords = append(out.MeanWords, totalWords/float64(reps))
		out.PeakLinkWords = append(out.PeakLinkWords, peak)
	}
	out.FittedExponent = FitExponent(out.Sizes, out.MeanRounds)
	return out, nil
}

// FitExponent least-squares fits slope of log(rounds) against log(n).
func FitExponent(sizes []int, rounds []float64) float64 {
	if len(sizes) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range sizes {
		x := math.Log(float64(sizes[i]))
		y := math.Log(rounds[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	k := float64(len(sizes))
	return (k*sxy - sx*sy) / (k*sxx - sx*sx)
}

// LowerBound describes a lower-bound experiment.
type LowerBound struct {
	ID    Experiment
	Claim string
	// Build constructs the instance for a given scale and forced
	// intersection state.
	Build func(scale int, intersect bool, seed int64) (*lb.Instance, error)
}

// LowerBounds returns the registry of lower-bound experiments keyed by ID.
func LowerBounds() map[Experiment]LowerBound {
	return map[Experiment]LowerBound{
		ExpDirectedLB2: {
			ID: ExpDirectedLB2, Claim: "(2-eps)-approx needs Omega(n/log n), D=O(1)",
			Build: func(scale int, intersect bool, seed int64) (*lb.Instance, error) {
				return lb.Directed2Eps(scale, lb.RandomDisjointness(scale*scale, intersect, seed))
			},
		},
		ExpUndirWLB2: {
			ID: ExpUndirWLB2, Claim: "(2-eps)-approx needs Omega(n/log n)",
			Build: func(scale int, intersect bool, seed int64) (*lb.Instance, error) {
				return lb.UndirWeighted2Eps(scale, lb.RandomDisjointness(scale*scale, intersect, seed), 50)
			},
		},
		ExpDirectedLBA: {
			ID: ExpDirectedLBA, Claim: "alpha-approx needs Omega(sqrt(n)/log n)",
			Build: func(scale int, intersect bool, seed int64) (*lb.Instance, error) {
				return lb.Alpha(scale, scale, lb.RandomDisjointness(scale, intersect, seed), true, 16)
			},
		},
		ExpGirthLBA: {
			ID: ExpGirthLBA, Claim: "alpha-approx of girth needs Omega(n^{1/4}/log n)",
			Build: func(scale int, intersect bool, seed int64) (*lb.Instance, error) {
				return lb.GirthAlpha(scale, scale, lb.RandomDisjointness(scale, intersect, seed), 4)
			},
		},
	}
}

// LBResult aggregates a lower-bound experiment at one scale.
type LBResult struct {
	ID                Experiment
	Scale, N, Bits    int
	GapOK, DecisionOK bool
	CutWords          int
	ImpliedRounds     int
	MeasuredRounds    int
	CertifiedFactor   float64
	// CutPerRound / PeakCutWords are the disjoint instance's round-by-round
	// cut traffic (the Section-5 measurement) and its per-round maximum.
	CutPerRound  []int
	PeakCutWords int
}

// RunLowerBound verifies the gap and meters the cut at one scale (both an
// intersecting and a disjoint instance; cut figures are from the disjoint
// one, the harder side of the communication argument).
func RunLowerBound(lbe LowerBound, scale int, seed int64) (*LBResult, error) {
	out := &LBResult{ID: lbe.ID, Scale: scale, GapOK: true, DecisionOK: true}
	for _, intersect := range []bool{true, false} {
		inst, err := lbe.Build(scale, intersect, seed)
		if err != nil {
			return nil, err
		}
		out.N = inst.Graph.N()
		out.Bits = inst.Bits
		out.CertifiedFactor = float64(inst.Heavy) / float64(inst.Light)
		w, ok := seq.MWC(inst.Graph)
		if intersect && (!ok || w > inst.Light) {
			out.GapOK = false
		}
		if !intersect && ok && w < inst.Heavy {
			out.GapOK = false
		}
		meas, err := lb.Measure(inst, congest.Options{Seed: seed}, lb.ExactMWC)
		if err != nil {
			return nil, err
		}
		if meas.Intersects != intersect {
			out.DecisionOK = false
		}
		if !intersect {
			out.CutWords = meas.CutWords
			out.ImpliedRounds = meas.ImpliedRounds
			out.MeasuredRounds = meas.Rounds
			out.CutPerRound = meas.CutPerRound
			out.PeakCutWords = meas.PeakCutWords
		}
	}
	return out, nil
}

// WriteSweepTable prints a SweepResult as an aligned text table.
func WriteSweepTable(w io.Writer, res *SweepResult) {
	fmt.Fprintf(w, "%s  claim %s (exponent %.2f)\n", res.ID, res.Claim, res.ClaimExponent)
	fmt.Fprintf(w, "  %-8s %-12s %-12s %s\n", "n", "mean rounds", "mean words", "peak link-words/round")
	for i, n := range res.Sizes {
		fmt.Fprintf(w, "  %-8d %-12.0f %-12.0f %d\n",
			n, res.MeanRounds[i], res.MeanWords[i], res.PeakLinkWords[i])
	}
	fmt.Fprintf(w, "  fitted exponent: %.3f (claimed %.2f)\n", res.FittedExponent, res.ClaimExponent)
	if res.WorstRatio > 0 {
		fmt.Fprintf(w, "  worst approximation ratio: %.3f\n", res.WorstRatio)
	}
}

// WriteLBTable prints lower-bound results as an aligned text table.
func WriteLBTable(w io.Writer, rows []*LBResult) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%s  claim %s\n", rows[0].ID, LowerBounds()[rows[0].ID].Claim)
	fmt.Fprintf(w, "  %-7s %-7s %-7s %-6s %-9s %-10s %-9s %-8s %s\n",
		"scale", "n", "bits", "gap", "decision", "cut-words", "implied", "rounds", "peak-cut/rd")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-7d %-7d %-7d %-6v %-9v %-10d %-9d %-8d %d\n",
			r.Scale, r.N, r.Bits, r.GapOK, r.DecisionOK, r.CutWords, r.ImpliedRounds,
			r.MeasuredRounds, r.PeakCutWords)
	}
}

// WriteCutSeries prints one lower-bound row's round-by-round cut traffic
// as "round cut-words" pairs (rounds with zero cut traffic elided).
func WriteCutSeries(w io.Writer, r *LBResult) {
	fmt.Fprintf(w, "%s scale=%d cut-words per round (nonzero):\n", r.ID, r.Scale)
	for i, c := range r.CutPerRound {
		if c > 0 {
			fmt.Fprintf(w, "  r=%-6d %d\n", i+1, c)
		}
	}
}

// IDs returns all experiment IDs in canonical order.
func IDs() []Experiment {
	var ids []Experiment
	for id := range UpperBounds() {
		ids = append(ids, id)
	}
	for id := range LowerBounds() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return strings.Compare(string(ids[i]), string(ids[j])) < 0 })
	return ids
}
