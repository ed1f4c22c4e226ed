// Command mwcrun runs one MWC (or multi-source shortest path) algorithm on
// a generated or file-loaded graph and prints the answer together with its
// CONGEST cost.
//
// Examples:
//
//	mwcrun -gen random -n 200 -class d -algo approx
//	mwcrun -gen planted -n 150 -class uw -cyclelen 6 -cyclew 40 -algo approx -eps 0.25
//	mwcrun -graph instance.gr -algo exact
//	mwcrun -gen random -n 300 -class d -algo ksssp -k 17
//
// Observability (see docs/OBSERVABILITY.md):
//
//	mwcrun -gen random -n 200 -class uw -algo approx -metrics out.json -phases
//	mwcrun -gen ring -n 64 -algo exact -trace trace.jsonl -cpuprofile cpu.pprof
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"congestmwc"
	"congestmwc/internal/check"
	"congestmwc/internal/congest"
	"congestmwc/internal/dot"
	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
	"congestmwc/internal/graphio"
	"congestmwc/internal/ksssp"
	"congestmwc/internal/obs"
	"congestmwc/internal/seq"
)

// Exit codes: 0 success, 1 error, 2 run aborted by -deadline or a signal.
const exitAborted = 2

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mwcrun:", err)
		if errors.Is(err, congest.ErrCanceled) {
			os.Exit(exitAborted)
		}
		os.Exit(1)
	}
}

type config struct {
	graphFile string
	genKind   string
	class     string
	n         int
	p         float64
	maxW      int64
	cycleLen  int
	cycleW    int64
	algo      string
	guarantee string
	k         int
	eps       float64
	seed      int64
	bandwidth int
	parallel  bool
	stepwise  bool
	check     bool
	dotFile   string
	traceMsgs int

	metricsFile string
	traceFile   string
	phases      bool
	sampleMsgs  int
	cpuProfile  string

	deadline time.Duration
}

// run executes one mwcrun invocation, writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mwcrun", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.graphFile, "graph", "", "graph file (graphio format); overrides -gen")
	fs.StringVar(&cfg.genKind, "gen", "random", "generator: random | ring | grid | planted")
	fs.StringVar(&cfg.class, "class", "d", "graph class: ud | d | uw | dw")
	fs.IntVar(&cfg.n, "n", 100, "number of vertices")
	fs.Float64Var(&cfg.p, "p", 0, "random edge probability (0 = 4/n)")
	fs.Int64Var(&cfg.maxW, "maxw", 16, "maximum edge weight for weighted classes")
	fs.IntVar(&cfg.cycleLen, "cyclelen", 5, "planted cycle length")
	fs.Int64Var(&cfg.cycleW, "cyclew", 0, "planted cycle weight (0 = cyclelen*maxw/2)")
	fs.StringVar(&cfg.algo, "algo", congestmwc.AlgoNameApprox, "algorithm: "+strings.Join(congestmwc.AlgorithmNames(), " | ")+" | ksssp")
	fs.StringVar(&cfg.guarantee, "guarantee", "", "let the planner pick the algorithm for this guarantee (exact | girth | 2 | 2+eps | a ratio >= 1); mutually exclusive with -algo")
	fs.IntVar(&cfg.k, "k", 0, "number of sources for ksssp (0 = ceil(sqrt(n)))")
	fs.Float64Var(&cfg.eps, "eps", 0.25, "accuracy for weighted approximations")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	fs.IntVar(&cfg.bandwidth, "bandwidth", 0, "link bandwidth in words per round (0 = default)")
	fs.BoolVar(&cfg.parallel, "parallel", false, "run node handlers on worker goroutines")
	fs.BoolVar(&cfg.stepwise, "stepwise", false, "iterate every round one by one instead of event-driven round skipping (debug/reference mode, identical results)")
	fs.BoolVar(&cfg.check, "check", true, "compare against the sequential reference")
	fs.StringVar(&cfg.dotFile, "dot", "", "write the instance (with the witness cycle highlighted, if any) as Graphviz DOT to this file")
	fs.IntVar(&cfg.traceMsgs, "tracemsgs", 0, "print the first N delivered messages as text (simulator trace)")
	fs.StringVar(&cfg.metricsFile, "metrics", "", "write a JSON metrics summary (per-round series, per-tag words, phase table) to this file; '-' for stdout")
	fs.StringVar(&cfg.traceFile, "trace", "", "stream every simulation event as JSON lines to this file")
	fs.BoolVar(&cfg.phases, "phases", false, "print the phase-span table after the run")
	fs.IntVar(&cfg.sampleMsgs, "samplemsgs", 0, "keep a uniform reservoir sample of N message events in the metrics summary")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.DurationVar(&cfg.deadline, "deadline", 0, "abort the run after this wall-clock budget (0 = none); exit code 2 on timeout or interrupt")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := buildGraph(cfg, stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: n=%d m=%d directed=%v weighted=%v\n", g.N(), g.M(), g.Directed(), g.Weighted())
	fg, err := check.FromInternal(g, "").Graph()
	if err != nil {
		return err
	}
	opts := congestmwc.Options{
		Seed: cfg.seed, Bandwidth: cfg.bandwidth, Parallel: cfg.parallel,
		Stepwise: cfg.stepwise, Eps: cfg.eps,
	}

	if cfg.guarantee != "" {
		algoSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "algo" {
				algoSet = true
			}
		})
		if algoSet {
			return fmt.Errorf("-algo and -guarantee are mutually exclusive: name one")
		}
		dec, err := congestmwc.Plan(fg, congestmwc.Guarantee(cfg.guarantee), opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "planner: %s (ratio %.3g, est %.0f rounds) — %s\n",
			dec.Algorithm, dec.Ratio, dec.EstRounds, dec.Reason)
		cfg.algo = dec.Algorithm
	}

	// Run under a context so SIGINT/SIGTERM (and -deadline, when set) abort
	// the simulation within one executed round instead of killing the
	// process mid-run; main maps the abort to exit code 2.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if cfg.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.deadline)
		defer cancel()
	}
	// Assemble the observer stack the flags ask for.
	var observers congest.Multi
	if cfg.traceMsgs > 0 {
		observers = append(observers, &congest.TraceWriter{W: stdout, MaxMessages: cfg.traceMsgs})
	}
	var col *obs.Collector
	if cfg.metricsFile != "" || cfg.phases {
		col = &obs.Collector{Wall: true, SampleMessages: cfg.sampleMsgs}
		observers = append(observers, col)
	}
	var (
		traceOut  *os.File
		traceBuf  *bufio.Writer
		traceJSON *obs.JSONL
	)
	if cfg.traceFile != "" {
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return err
		}
		traceOut, traceBuf = f, bufio.NewWriter(f)
		traceJSON = &obs.JSONL{W: traceBuf}
		observers = append(observers, traceJSON)
	}
	var observer congest.Observer
	switch len(observers) {
	case 0:
	case 1:
		observer = observers[0]
	default:
		observer = observers
	}
	if cfg.cpuProfile != "" {
		stop, err := obs.StartCPUProfile(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}

	if cfg.algo == "ksssp" {
		err = runKSSSP(ctx, cfg, g, observer, stdout)
	} else {
		err = runPortfolio(ctx, cfg, g, fg, opts.WithObserver(observer), stdout)
	}
	if err != nil {
		return err
	}
	return writeObs(cfg, col, traceJSON, traceBuf, traceOut, stdout)
}

// writeObs emits the observability outputs after a successful run.
func writeObs(cfg config, col *obs.Collector, traceJSON *obs.JSONL, traceBuf *bufio.Writer, traceOut *os.File, stdout io.Writer) error {
	if traceJSON != nil {
		if err := traceJSON.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := traceBuf.Flush(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := traceOut.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stdout, "wrote event trace to %s\n", cfg.traceFile)
	}
	if col == nil {
		return nil
	}
	sum := col.Summary()
	if cfg.phases {
		fmt.Fprintln(stdout)
		obs.WritePhaseTable(stdout, sum.Phases)
	}
	if cfg.metricsFile != "" {
		w := stdout
		if cfg.metricsFile != "-" {
			f, err := os.Create(cfg.metricsFile)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := sum.WriteJSON(w); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if cfg.metricsFile != "-" {
			fmt.Fprintf(stdout, "wrote metrics to %s\n", cfg.metricsFile)
		}
	}
	return nil
}

func buildGraph(cfg config, stdout io.Writer) (*graph.Graph, error) {
	if cfg.graphFile != "" {
		f, err := os.Open(cfg.graphFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graphio.Read(f)
	}
	directed := cfg.class == "d" || cfg.class == "dw"
	weighted := cfg.class == "uw" || cfg.class == "dw"
	if !directed && cfg.class != "ud" && cfg.class != "uw" {
		return nil, fmt.Errorf("unknown class %q", cfg.class)
	}
	switch cfg.genKind {
	case "random":
		p := cfg.p
		if p <= 0 {
			p = 4 / float64(cfg.n)
		}
		return gen.Random{
			N: cfg.n, P: p, Directed: directed, Weighted: weighted,
			MaxW: cfg.maxW, Seed: cfg.seed,
		}.Graph()
	case "ring":
		w := int64(1)
		if weighted {
			w = cfg.maxW
		}
		return gen.Ring(cfg.n, directed, weighted, w), nil
	case "grid":
		if directed {
			return nil, fmt.Errorf("grid generator is undirected")
		}
		side := int(math.Ceil(math.Sqrt(float64(cfg.n))))
		return gen.Grid(side, side, weighted, cfg.maxW, cfg.seed), nil
	case "planted":
		cw := cfg.cycleW
		if cw == 0 {
			cw = int64(cfg.cycleLen) * cfg.maxW / 2
		}
		g, planted, err := gen.PlantedCycle{
			N: cfg.n, CycleLen: cfg.cycleLen, CycleW: cw,
			Directed: directed, Weighted: weighted, BackgroundDeg: 2, Seed: cfg.seed,
		}.Graph()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "planted MWC weight: %d\n", planted)
		return g, nil
	default:
		return nil, fmt.Errorf("unknown generator %q", cfg.genKind)
	}
}

// runPortfolio runs a registered algorithm through the facade's run path
// and prints its answer, cost, reference check and witness.
func runPortfolio(ctx context.Context, cfg config, g *graph.Graph, fg *congestmwc.Graph, opts congestmwc.Options, stdout io.Writer) error {
	a, ok := congestmwc.AlgorithmByName(cfg.algo)
	if !ok {
		return fmt.Errorf("unknown algorithm %q (want %s | ksssp)", cfg.algo, strings.Join(congestmwc.AlgorithmNames(), " | "))
	}
	res, err := congestmwc.RunAlgorithmCtx(ctx, a.Name, fg, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "algorithm: %s — %s (registered ratio %.3g on %s)\n",
		a.Name, a.Description, a.Ratio(fg.Class(), opts.Eps), fg.Class())
	if res.Found {
		fmt.Fprintf(stdout, "cycle weight: %d\n", res.Weight)
	} else {
		fmt.Fprintln(stdout, "cycle weight: none (acyclic)")
	}
	fmt.Fprintf(stdout, "rounds: %d  messages: %d  words: %d\n", res.Rounds, res.Messages, res.Words)
	if cfg.check {
		truth, ok := seq.MWC(g)
		switch {
		case ok && res.Found:
			fmt.Fprintf(stdout, "reference MWC: %d  ratio: %.3f\n", truth, float64(res.Weight)/float64(truth))
		case ok != res.Found:
			fmt.Fprintf(stdout, "reference MWC disagrees: found=%v reference ok=%v\n", res.Found, ok)
		default:
			fmt.Fprintln(stdout, "reference MWC: none (acyclic) — agrees")
		}
	}
	if res.Found && len(res.Cycle) > 0 {
		fmt.Fprintf(stdout, "witness cycle: %v\n", res.Cycle)
	}
	if cfg.dotFile == "" {
		return nil
	}
	f, err := os.Create(cfg.dotFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dot.Write(f, g, dot.Options{Highlight: res.Cycle, ShowWeights: true}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote DOT to %s\n", cfg.dotFile)
	return nil
}

func runKSSSP(ctx context.Context, cfg config, g *graph.Graph, observer congest.Observer, stdout io.Writer) error {
	net, err := congest.NewNetwork(g, congest.Options{
		Seed: cfg.seed, Bandwidth: cfg.bandwidth, Parallel: cfg.parallel,
		Stepwise: cfg.stepwise,
	})
	if err != nil {
		return err
	}
	net.SetContext(ctx)
	if observer != nil {
		net.SetObserver(observer)
	}
	k := cfg.k
	if k <= 0 {
		k = int(math.Ceil(math.Sqrt(float64(g.N()))))
	}
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i * g.N() / k
	}
	eps := 0.0
	if g.Weighted() {
		eps = cfg.eps
	}
	res, err := ksssp.Run(net, ksssp.Spec{Sources: sources, Eps: eps})
	if err != nil {
		return err
	}
	reached := 0
	for v := 0; v < g.N(); v++ {
		for i := range sources {
			if res.Dist[v][i] < seq.Inf {
				reached++
			}
		}
	}
	fmt.Fprintf(stdout, "algorithm: %d-source %s (Theorem 1.6)\n", k, map[bool]string{true: "(1+eps)-approx SSSP", false: "exact BFS"}[g.Weighted()])
	fmt.Fprintf(stdout, "sources: %s\n", joinInts(sources))
	fmt.Fprintf(stdout, "reachable (source,vertex) pairs: %d / %d\n", reached, k*g.N())
	s := net.Stats()
	fmt.Fprintf(stdout, "rounds: %d  messages: %d  words: %d\n", s.Rounds, s.Messages, s.Words)
	if cfg.check {
		worst := 1.0
		for i, src := range sources {
			want := seq.Dijkstra(g, src)
			for v := 0; v < g.N(); v++ {
				if want[v] >= seq.Inf || want[v] == 0 {
					continue
				}
				if r := float64(res.Dist[v][i]) / float64(want[v]); r > worst {
					worst = r
				}
			}
		}
		fmt.Fprintf(stdout, "worst distance ratio vs reference: %.4f\n", worst)
	}
	return nil
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}
