package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"congestmwc"
	"congestmwc/internal/graph"
)

// approxSize is the vertex count per class: at random p = 4/n one approx
// run costs about the same on every class (tens of ms on a 2-CPU x86
// container), so the median and the tail sit inside one cluster rather
// than on the gap between the unweighted and weighted classes.
var approxSize = map[congestmwc.Class]int{
	congestmwc.Undirected:         96,
	congestmwc.Directed:           40,
	congestmwc.UndirectedWeighted: 24,
	congestmwc.DirectedWeighted:   20,
}

const (
	// approxOpsPerSecond fixes the op count: ops = approxOpsPerSecond x
	// seconds, rounded up to whole rounds of the four classes.
	approxOpsPerSecond = 28
	approxWarmPerClass = 5
	approxMaxW         = 16
)

// approxClasses runs the source paper's approximation pipeline through
// congestmwc.RunAlgorithmCtx(ctx, "approx", ...) in a closed loop with one
// client, over a seeded list of instances covering all four classes.
type approxClasses struct {
	seed        int64
	insts, warm []instance
	graphs      []*congestmwc.Graph
	ratio       map[congestmwc.Class]float64
}

func (a *approxClasses) prepare(cfg config) error {
	a.seed = cfg.seed
	perClass := (approxOpsPerSecond*cfg.seconds + 3) / 4
	var err error
	if a.insts, err = approxInstances(rand.New(rand.NewSource(cfg.seed)), perClass); err != nil {
		return err
	}
	// The warm-up set comes from a disjoint seed stream.
	if a.warm, err = approxInstances(rand.New(rand.NewSource(^cfg.seed)), approxWarmPerClass); err != nil {
		return err
	}
	info, _ := congestmwc.AlgorithmByName(congestmwc.AlgoNameApprox)
	a.ratio = map[congestmwc.Class]float64{}
	for _, c := range classes {
		a.ratio[c] = info.Ratio(c, 0)
	}
	return nil
}

// approxInstances draws perClass instances of every class in a seeded
// order.
func approxInstances(rng *rand.Rand, perClass int) ([]instance, error) {
	var out []instance
	for i := 0; i < perClass; i++ {
		for _, c := range classes {
			n := approxSize[c]
			in, err := randomInstance(rng, n, 4/float64(n), c, approxMaxW)
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

func (a *approxClasses) setup(string) error {
	a.graphs = a.graphs[:0]
	for _, in := range a.insts {
		g, err := in.graph()
		if err != nil {
			return err
		}
		a.graphs = append(a.graphs, g)
	}
	for i, in := range a.warm {
		g, err := in.graph()
		if err != nil {
			return err
		}
		if _, err := congestmwc.RunAlgorithmCtx(context.Background(), congestmwc.AlgoNameApprox, g,
			congestmwc.Options{Seed: int64(i)}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (a *approxClasses) opts(i int) congestmwc.Options {
	return congestmwc.Options{Seed: a.seed*1_000_003 + int64(i)}
}

func (a *approxClasses) pass(tr *tracer) (*passResult, error) {
	ctx := context.Background()
	p := &passResult{ops: len(a.insts), lat: make([]float64, len(a.insts))}
	results := make([]*congestmwc.Result, len(a.insts))
	errs := make([]error, len(a.insts))
	seg := newSegmenter(len(a.graphs))
	m := startMeter()
	for i, g := range a.graphs {
		seg.mark(i)
		t0 := time.Now()
		if tr != nil {
			results[i], errs[i] = tr.run(ctx, i, congestmwc.AlgoNameApprox, g, a.opts(i))
		} else {
			results[i], errs[i] = congestmwc.RunAlgorithmCtx(ctx, congestmwc.AlgoNameApprox, g, a.opts(i))
		}
		p.lat[i] = ms(time.Since(t0))
	}
	seg.mark(len(a.graphs))
	p.meter = m.stop()
	p.segs = seg.cut(seg.bounds, len(p.lat))
	for i, res := range results {
		in := a.insts[i]
		if errs[i] != nil {
			p.fail("op %d (%s n=%d): %v", i, in.class, in.n, errs[i])
			continue
		}
		p.rounds += int64(res.Rounds)
		p.messages += int64(res.Messages)
		if err := checkAnswer(a.graphs[i], in.ref, res.Weight, res.Found, res.Cycle, a.ratio[in.class]); err != nil {
			p.fail("op %d (%s n=%d): %v", i, in.class, in.n, err)
			continue
		}
		p.ratioMax = max(p.ratioMax, float64(res.Weight)/float64(in.ref))
	}
	if tr != nil {
		tr.sim.ops = p.ops
	}
	return p, nil
}

// attribute times the set-up's graph construction: NewGraph through the
// facade and graph.Build underneath it, in total ms per set-up.
func (a *approxClasses) attribute(tr *tracer) error {
	return timeBuilds(tr, a.insts)
}

func (a *approxClasses) teardown() error { return nil }

// timeBuilds times building every instance once through congestmwc.NewGraph
// and once through internal/graph.Build, reported as total ms per set-up.
func timeBuilds(tr *tracer, insts []instance) error {
	var facade, inner time.Duration
	for _, in := range insts {
		ge := make([]graph.Edge, len(in.edges))
		for i, e := range in.edges {
			ge[i] = graph.Edge{From: e.From, To: e.To, Weight: e.Weight}
		}
		opts := graph.Options{Directed: directed(in.class), Weighted: weighted(in.class)}
		t0 := time.Now()
		if _, err := in.graph(); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := graph.Build(in.n, ge, opts); err != nil {
			return err
		}
		facade += t1.Sub(t0)
		inner += time.Since(t1)
	}
	tr.set("congestmwc.newgraph_ms", ms(facade))
	tr.set("graph.build_ms", ms(inner))
	return nil
}
