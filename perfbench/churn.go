package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"congestmwc"
	"congestmwc/internal/jobs"
	"congestmwc/internal/session"
	"congestmwc/internal/store"
)

const (
	churnSessions = 4
	churnN        = 64
	// The planted witness is a 4-cycle with edge weights in [1, 8], so the
	// MWC is at most 32; every other edge weighs at least churnHeavyMin,
	// so every other cycle weighs more and the witness is unique.
	churnCycleLen = 4
	churnMaxLight = 8
	churnHeavyMin = 40
	// Chords weigh at least churnChordW (> 32): inserting or deleting one
	// never changes the answer. Their live count hovers at churnChords.
	churnChordW = 100
	churnChords = 64
	// churnOpsPerSecond fixes the op count (ops = churnOpsPerSecond x
	// seconds, a whole number of rounds). A round is churnRound consecutive
	// ops, churnKeptPerRound of them off-witness; it is one latency sample.
	churnOpsPerSecond = 400
	churnRound        = 10
	churnKeptPerRound = 7
	churnWarmOps      = 300
	churnRefWorkers   = 2
	churnQueryWait    = 30 * time.Second
)

// churnGraph is the planner's mirror of one session's edge set.
type churnGraph struct {
	class    congestmwc.Class
	algo     jobs.Algo
	edges    map[[2]int]int64
	planted  [][2]int // the witness cycle's edges
	backbone [][2]int // heavy edges that are never deleted, only reweighted up
	chords   [][2]int // live heavy chords
}

func (g *churnGraph) key(u, v int) [2]int {
	if !directed(g.class) && u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (g *churnGraph) clone() *churnGraph {
	c := *g
	c.edges = make(map[[2]int]int64, len(g.edges))
	for k, w := range g.edges {
		c.edges[k] = w
	}
	c.chords = append([][2]int(nil), g.chords...)
	return &c
}

// edgeList is the mirror's edge set in a deterministic order.
func (g *churnGraph) edgeList() []congestmwc.Edge {
	keys := make([][2]int, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	out := make([]congestmwc.Edge, len(keys))
	for i, k := range keys {
		out[i] = congestmwc.Edge{From: k[0], To: k[1], Weight: g.edges[k]}
	}
	return out
}

func (g *churnGraph) graph() (*congestmwc.Graph, error) {
	return congestmwc.NewGraph(churnN, g.edgeList(), g.class)
}

func (g *churnGraph) plantedWeight() int64 {
	var w int64
	for _, k := range g.planted {
		w += g.edges[k]
	}
	return w
}

func (g *churnGraph) spec() jobs.Spec {
	el := g.edgeList()
	spec := jobs.Spec{Graph: jobs.GraphSpec{Class: classCode(g.class), N: churnN, Edges: make([]jobs.Edge, len(el))}, Algo: g.algo}
	for i, e := range el {
		spec.Graph.Edges[i] = jobs.Edge{From: e.From, To: e.To, Weight: e.Weight}
	}
	return spec
}

// newChurnGraph plants the witness 0→1→…→3→0 on a heavy path backbone
// (both directions on directed classes) plus churnChords heavy chords.
func newChurnGraph(rng *rand.Rand, c congestmwc.Class, algo jobs.Algo) *churnGraph {
	g := &churnGraph{class: c, algo: algo, edges: map[[2]int]int64{}}
	for i := 0; i < churnCycleLen; i++ {
		k := g.key(i, (i+1)%churnCycleLen)
		g.edges[k] = 1 + rng.Int63n(churnMaxLight)
		g.planted = append(g.planted, k)
	}
	addHeavy := func(u, v int) {
		if k := g.key(u, v); g.edges[k] == 0 {
			g.edges[k] = churnHeavyMin + rng.Int63n(churnHeavyMin)
			g.backbone = append(g.backbone, k)
		}
	}
	for i := 0; i+1 < churnN; i++ {
		addHeavy(i, i+1)
		if directed(c) {
			addHeavy(i+1, i)
		}
	}
	for len(g.chords) < churnChords {
		g.insertChord(rng)
	}
	return g
}

func (g *churnGraph) insertChord(rng *rand.Rand) session.Op {
	for {
		u, v := rng.Intn(churnN), rng.Intn(churnN)
		if k := g.key(u, v); u != v && g.edges[k] == 0 {
			w := churnChordW + rng.Int63n(churnChordW)
			g.edges[k] = w
			g.chords = append(g.chords, k)
			return session.Op{Op: session.OpInsert, From: k[0], To: k[1], Weight: w}
		}
	}
}

// offWitness draws one answer-preserving op, avoiding edges in busy (the
// batch's other edges): insert or delete a chord, keeping the chord count
// near churnChords, or reweight a backbone edge upward.
func (g *churnGraph) offWitness(rng *rand.Rand, busy map[[2]int]bool) session.Op {
	for {
		switch pick := rng.Intn(3); {
		case pick == 0 && len(g.chords) <= churnChords:
			op := g.insertChord(rng)
			busy[g.key(op.From, op.To)] = true
			return op
		case pick == 1 && len(g.chords) >= churnChords:
			i := rng.Intn(len(g.chords))
			k := g.chords[i]
			if busy[k] {
				continue
			}
			g.chords = append(g.chords[:i], g.chords[i+1:]...)
			delete(g.edges, k)
			busy[k] = true
			return session.Op{Op: session.OpDelete, From: k[0], To: k[1]}
		case pick == 2:
			return g.reweightUp(rng, busy)
		}
	}
}

func (g *churnGraph) reweightUp(rng *rand.Rand, busy map[[2]int]bool) session.Op {
	for {
		k := g.backbone[rng.Intn(len(g.backbone))]
		if busy[k] {
			continue
		}
		busy[k] = true
		g.edges[k] += 1 + rng.Int63n(3)
		return session.Op{Op: session.OpReweight, From: k[0], To: k[1], Weight: g.edges[k]}
	}
}

// onWitness reweights a witness edge to another light weight, which must
// invalidate the cached answer, plus one backbone edge upward, so the
// backbone's total weight grows with every recompute and no recomputed
// edge set ever repeats (every recompute is a cache miss).
func (g *churnGraph) onWitness(rng *rand.Rand) []session.Op {
	k := g.planted[rng.Intn(len(g.planted))]
	w := g.edges[k]
	for w == g.edges[k] {
		w = 1 + rng.Int63n(churnMaxLight)
	}
	g.edges[k] = w
	busy := map[[2]int]bool{k: true}
	return []session.Op{{Op: session.OpReweight, From: k[0], To: k[1], Weight: w}, g.reweightUp(rng, busy)}
}

type churnOp struct {
	sess int
	ops  []session.Op
	kept bool  // planned: every op is off-witness
	ref  int64 // reference MWC after the batch
}

type churnPlan struct {
	initial []*churnGraph
	ops     []churnOp
	kept    int
}

// planChurn draws sessions sessions (classes uw and dw in turn, recomputed
// by agarwal or exact) and ops patch batches over them in round-robin
// order, churnKeptPerRound of every round off-witness, and computes the
// reference answer after every batch. ReferenceMWC is nearly all of the
// plan's cost, so it runs on churnRefWorkers goroutines while the plan is
// drawn in order from rng.
func planChurn(rng *rand.Rand, sessions, ops int) (*churnPlan, error) {
	p := &churnPlan{ops: make([]churnOp, ops)}
	var live []*churnGraph
	for s := 0; s < sessions; s++ {
		c := []congestmwc.Class{congestmwc.UndirectedWeighted, congestmwc.DirectedWeighted}[s%2]
		algo := []jobs.Algo{jobs.AlgoAgarwal, jobs.AlgoExact}[(s/2)%2]
		g := newChurnGraph(rng, c, algo)
		p.initial = append(p.initial, g.clone())
		live = append(live, g)
	}
	type refTask struct {
		i       int
		g       *congestmwc.Graph
		planted int64
	}
	tasks := make(chan refTask, 64)
	errc := make(chan error, churnRefWorkers)
	for k := 0; k < churnRefWorkers; k++ {
		go func() {
			var first error
			for t := range tasks {
				if first != nil {
					continue
				}
				ref, err := congestmwc.ReferenceMWC(t.g)
				if err == nil && ref != t.planted {
					err = fmt.Errorf("plan self-check: op %d: reference %d, planted witness %d", t.i, ref, t.planted)
				}
				p.ops[t.i].ref, first = ref, err
			}
			errc <- first
		}()
	}
	err := func() error {
		defer close(tasks)
		var kept []bool
		for i := 0; i < ops; i++ {
			if i%churnRound == 0 {
				kept = make([]bool, churnRound)
				for k := 0; k < churnKeptPerRound; k++ {
					kept[k] = true
				}
				rng.Shuffle(len(kept), func(a, b int) { kept[a], kept[b] = kept[b], kept[a] })
			}
			op := churnOp{sess: i % sessions, kept: kept[i%churnRound]}
			g := live[op.sess]
			if op.kept {
				busy := map[[2]int]bool{}
				op.ops = []session.Op{g.offWitness(rng, busy), g.offWitness(rng, busy)}
				p.kept++
			} else {
				op.ops = g.onWitness(rng)
			}
			gr, err := g.graph()
			if err != nil {
				return err
			}
			p.ops[i] = op
			tasks <- refTask{i: i, g: gr, planted: g.plantedWeight()}
		}
		return nil
	}()
	for k := 0; k < churnRefWorkers; k++ {
		if werr := <-errc; err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// replay walks the plan's edge sets: visit(i, g) sees session ops[i].sess
// right after batch i.
func (p *churnPlan) replay(visit func(i int, g *churnGraph) error) error {
	live := make([]*churnGraph, len(p.initial))
	for s, g := range p.initial {
		live[s] = g.clone()
	}
	for i, op := range p.ops {
		g := live[op.sess]
		for _, o := range op.ops {
			k := g.key(o.From, o.To)
			if o.Op == session.OpDelete {
				delete(g.edges, k)
			} else {
				g.edges[k] = o.Weight
			}
		}
		if err := visit(i, g); err != nil {
			return err
		}
	}
	return nil
}

// sessionChurn is a closed loop with one client over a few dynamic
// sessions: each op PATCHes a batch, then queries with a wait until the
// session is clean. A latency sample is one round of churnRound ops: per
// op, the median would sit on the absorbed patch alone and the tail on
// the slowest session's recomputes, a few percent of ops; a round's
// latency sums both kinds in their planned proportion.
type sessionChurn struct {
	plan, warm *churnPlan
	st         *store.Store
	sstore     *timedSessions
	journal    *timedJournal
	svc        *jobs.Service
	mgr        *session.Manager
	sess       []*session.Session
}

func (w *sessionChurn) prepare(cfg config) error {
	var err error
	if w.plan, err = planChurn(rand.New(rand.NewSource(cfg.seed)), churnSessions, churnOpsPerSecond*cfg.seconds); err != nil {
		return err
	}
	w.warm, err = planChurn(rand.New(rand.NewSource(^cfg.seed)), 1, churnWarmOps)
	return err
}

// setup opens the store, the service and the session manager, creates the
// measured sessions (their first compute is part of building them), and
// warms up on a session from a disjoint seed, which it then closes.
func (w *sessionChurn) setup(dir string) error {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	w.st = st
	w.journal = &timedJournal{Store: st}
	w.sstore = &timedSessions{Store: st}
	w.svc = jobs.New(jobs.Config{Workers: 1, QueueCap: 256, Journal: w.journal})
	if w.mgr, err = session.NewManager(session.Config{Jobs: w.svc, Store: w.sstore}); err != nil {
		return err
	}
	open := func(p *churnPlan) ([]*session.Session, error) {
		var out []*session.Session
		for _, g := range p.initial {
			s, err := w.mgr.Create(g.spec())
			if err != nil {
				return nil, err
			}
			if st, _ := s.Query(context.Background(), churnQueryWait); st.State != session.StateClean {
				return nil, fmt.Errorf("session %s: first compute ended %s: %s", st.ID, st.State, st.Error)
			}
			out = append(out, s)
		}
		return out, nil
	}
	warm, err := open(w.warm)
	if err != nil {
		return err
	}
	for i, op := range w.warm.ops {
		s := warm[op.sess]
		if _, err := s.Patch(op.ops); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
		s.Query(context.Background(), churnQueryWait)
	}
	for _, s := range warm {
		if _, err := w.mgr.Delete(s.ID()); err != nil {
			return err
		}
	}
	w.sess, err = open(w.plan)
	return err
}

func (w *sessionChurn) teardown() error {
	if w.svc == nil {
		return nil
	}
	w.mgr.Close()
	err := closeService(w.svc)
	if cerr := w.st.Close(); err == nil {
		err = cerr
	}
	w.svc = nil
	return err
}

type churnOutcome struct {
	kept bool
	st   session.Status
	err  error
}

func (w *sessionChurn) pass(tr *tracer) (*passResult, error) {
	pl := w.plan
	w.journal.tr.Store(tr)
	w.sstore.tr.Store(tr)
	defer w.journal.tr.Store(nil)
	defer w.sstore.tr.Store(nil)
	w.journal.reset()
	ctx := context.Background()
	out := make([]churnOutcome, len(pl.ops))
	lat := make([]float64, len(pl.ops)/churnRound)
	version := make([]uint64, len(w.sess))
	for s, sess := range w.sess {
		version[s] = sess.Status().Version
	}
	before, err := settled(w.svc)
	if err != nil {
		return nil, err
	}
	mBefore, stBefore := w.mgr.Metrics(), w.st.StoreMetrics()
	seg := newSegmenter(len(lat))
	var round time.Time
	m := startMeter()
	for i, op := range pl.ops {
		if i%churnRound == 0 {
			seg.mark(i / churnRound)
			round = time.Now()
		}
		s := w.sess[op.sess]
		t0 := time.Now()
		pr, err := s.Patch(op.ops)
		t1 := time.Now()
		st, _ := s.Query(ctx, churnQueryWait)
		d := time.Since(t0)
		if i%churnRound == churnRound-1 {
			lat[i/churnRound] = ms(time.Since(round))
		}
		out[i] = churnOutcome{kept: pr.WitnessKept, st: st, err: err}
		if tr != nil {
			tr.record("session.patch_us", i, t0, t1.Sub(t0))
			tr.record("session.query_us", i, t1, d-t1.Sub(t0))
			if !op.kept {
				tr.record("session.recompute_ms", i, t1, d-t1.Sub(t0))
			}
		}
	}
	seg.mark(len(lat))
	reading := m.stop()
	// A query wakes before the worker has counted the recompute's rounds;
	// draining the service settles the counters.
	w.mgr.Close()
	if err := closeService(w.svc); err != nil {
		return nil, err
	}
	after, mAfter, stAfter := w.svc.Metrics(), w.mgr.Metrics(), w.st.StoreMetrics()

	p := &passResult{ops: len(pl.ops), lat: lat, opsPerSample: churnRound, meter: reading, ratioMax: 1, segs: seg.cut(seg.bounds, len(lat))}
	p.rounds = int64(after.RoundsSimulated - before.RoundsSimulated)
	p.messages = int64(after.MessagesSimulated - before.MessagesSimulated)
	keptMismatch := 0
	err = pl.replay(func(i int, g *churnGraph) error {
		op, o := pl.ops[i], out[i]
		version[op.sess]++
		if o.err != nil {
			p.fail("op %d: %v", i, o.err)
			return nil
		}
		if o.kept != op.kept {
			keptMismatch++
		}
		switch {
		case o.st.State != session.StateClean || o.st.Result == nil:
			p.fail("op %d: session %s %s: %s", i, o.st.ID, o.st.State, o.st.Error)
		case o.st.Version != version[op.sess] || o.st.ResultVersion != o.st.Version:
			p.fail("op %d: session %s at version %d (result %d), want %d", i, o.st.ID, o.st.Version, o.st.ResultVersion, version[op.sess])
		default:
			gr, err := g.graph()
			if err != nil {
				return err
			}
			r := o.st.Result
			if err := checkAnswer(gr, op.ref, r.Weight, r.Found, r.Cycle, 1); err != nil {
				p.fail("op %d (session %s): %v", i, o.st.ID, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if keptMismatch > 0 {
		p.invalidf("%d patches absorbed differently from the plan", keptMismatch)
	}
	if got := int(mAfter.WitnessKept - mBefore.WitnessKept); got != pl.kept {
		p.invalidf("witness-kept patches %d, planned %d", got, pl.kept)
	}
	if got := int(mAfter.Invalidations - mBefore.Invalidations); got != len(pl.ops)-pl.kept {
		p.invalidf("invalidating patches %d, planned %d", got, len(pl.ops)-pl.kept)
	}
	if tr != nil {
		ops := float64(p.ops)
		tr.set("session.witness_kept_share", float64(mAfter.WitnessKept-mBefore.WitnessKept)/ops)
		tr.set("session.rounds_per_patch", float64(p.rounds)/ops)
		w.journal.report(tr, stAfter.Fsyncs-stBefore.Fsyncs, ops)
	}
	return p, nil
}

// attribute re-simulates every recompute the pass triggered (the edge set
// after each invalidating batch) with the collector attached, and times
// building the sessions' initial graphs.
func (w *sessionChurn) attribute(tr *tracer) error {
	ctx := context.Background()
	err := w.plan.replay(func(i int, g *churnGraph) error {
		if w.plan.ops[i].kept {
			return nil
		}
		gr, err := g.graph()
		if err != nil {
			return err
		}
		_, err = tr.run(ctx, i, string(g.algo), gr, congestmwc.Options{})
		return err
	})
	if err != nil {
		return err
	}
	tr.sim.ops = len(w.plan.ops)
	var insts []instance
	for _, g := range w.plan.initial {
		insts = append(insts, instance{n: churnN, class: g.class, edges: g.edgeList()})
	}
	return timeBuilds(tr, insts)
}
