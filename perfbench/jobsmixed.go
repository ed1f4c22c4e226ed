package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"time"

	"congestmwc"
	"congestmwc/internal/jobs"
	"congestmwc/internal/store"
)

const (
	// jobsArrivalsPerSecond is the fixed offered rate of the open loop
	// (an in-flight pair is one arrival). It keeps the one worker about a
	// fifth busy on a 2-vCPU x86 VM; it is never derived at runtime.
	jobsArrivalsPerSecond = 50
	// jobsCacheEntries is the service's LRU size; small, so old lines are
	// evicted and their hits are served by store.Lookup.
	jobsCacheEntries = 32
	// A memory hit targets a key with fewer than jobsMemRank other keys
	// touched since its own last touch; a durable hit one with at least
	// jobsEvictRank. The margins absorb the reordering of completions
	// against schedule order, so every planned hit lands as planned.
	jobsMemRank   = 8
	jobsEvictRank = 2 * jobsCacheEntries
	// jobsNoDurableBlocks is how many leading blocks replace their durable
	// hits with memory hits: until then no key is old enough to be evicted.
	jobsNoDurableBlocks = 5
	jobsBatchItems      = 3
	jobsWarmBlocks      = 7
)

type jobKind int

const (
	kCold       jobKind = iota // a fresh instance
	kPair                      // a fresh instance, duplicated right after its POST
	kHitMem                    // a completed key still in the LRU
	kHitDurable                // a completed key evicted from the LRU
	kBatch                     // jobs:batch of fresh instances
)

// jobsBlock is the op mix: 19 arrivals, 20 latency samples (a pair yields
// two). Hits are 5 of 20 samples, under the 40% that would move the median
// out of the cold cluster. The pair, the heaviest op, is 10% of samples, so
// a segment's p95 falls in the middle of its cluster rather than on the
// edge between clusters or on a few stalled outliers. The hits come last,
// so the first block can keep them behind the fresh keys they target.
var jobsBlock = func() []jobKind {
	var b []jobKind
	for _, kc := range []struct {
		k jobKind
		n int
	}{{kCold, 11}, {kPair, 1}, {kBatch, 2}, {kHitMem, 3}, {kHitDurable, 2}} {
		for i := 0; i < kc.n; i++ {
			b = append(b, kc.k)
		}
	}
	return b
}()

// jobSpec is one distinct submission: its wire body, the instance it
// resolves to (with the reference answer) and the algorithm that runs it.
type jobSpec struct {
	body  []byte
	spec  jobs.Spec
	inst  instance
	algo  string
	owner int // the op that submits it first
	g     *congestmwc.Graph
}

type jobOp struct {
	kind  jobKind
	at    time.Duration // scheduled send time, from the start of the pass
	specs []int
	dep   int // op whose completion a hit waits for (-1: none)
}

// jobPlan is a seeded schedule with the hit/dedup counts it must produce.
type jobPlan struct {
	specs                  []*jobSpec
	ops                    []jobOp
	samples                int
	memHits, durHits, dups int
}

// jobsMixed is the mwcd job path in-process: seeded paced arrivals
// POSTed through jobs.NewHandler, awaited with Job.Wait and read back with
// one GET, on one worker with a durable store.
type jobsMixed struct {
	plan, warm *jobPlan
	st         *store.Store
	journal    *timedJournal
	svc        *jobs.Service
	handler    http.Handler
}

func (w *jobsMixed) prepare(cfg config) error {
	blocks := (jobsArrivalsPerSecond*cfg.seconds + len(jobsBlock) - 1) / len(jobsBlock)
	var err error
	if w.plan, err = planJobs(rand.New(rand.NewSource(cfg.seed)), blocks, jobsArrivalsPerSecond); err != nil {
		return err
	}
	// The warm-up plan draws its instances from a disjoint seed stream, so
	// it cannot pre-fill a measured cache line.
	w.warm, err = planJobs(rand.New(rand.NewSource(^cfg.seed)), jobsWarmBlocks, 0)
	return err
}

// planJobs builds blocks shuffled copies of jobsBlock with paced send
// times at rate arrivals/s (rate 0: all due at once, for closed-loop use),
// and picks every hit's target from a model of the service's LRU.
//
// Arrival i is due at a seeded uniform offset inside its own slot
// [i/rate, (i+1)/rate), not at Poisson times: Poisson bursts set the p99,
// and which bursts a seed draws moves it by a factor of two between
// seeds, wider than any bound the benchmark may use.
func planJobs(rng *rand.Rand, blocks int, rate float64) (*jobPlan, error) {
	p := &jobPlan{}
	lastTouch := map[int]int{} // spec → logical time of its last LRU touch
	clock := 0
	touch := func(s int) { clock++; lastTouch[s] = clock }
	fresh := 0
	newSpec := func(owner int, kind jobKind) (int, error) {
		sp, err := coldSpec(rng, fresh, kind)
		if err != nil {
			return 0, err
		}
		fresh++
		sp.owner = owner
		p.specs = append(p.specs, sp)
		return len(p.specs) - 1, nil
	}
	for b := 0; b < blocks; b++ {
		kinds := append([]jobKind(nil), jobsBlock...)
		if b < jobsNoDurableBlocks {
			for i, k := range kinds {
				if k == kHitDurable {
					kinds[i] = kHitMem
				}
			}
		}
		if b == 0 {
			// Hits go last in the first block, after keys exist.
			rng.Shuffle(slices.Index(kinds, kHitMem), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		} else {
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		for _, k := range kinds {
			idx := len(p.ops)
			var at time.Duration
			if rate > 0 {
				at = time.Duration((float64(idx) + rng.Float64()) / rate * float64(time.Second))
			}
			op := jobOp{kind: k, at: at, dep: -1}
			switch k {
			case kCold, kPair:
				s, err := newSpec(idx, k)
				if err != nil {
					return nil, err
				}
				op.specs = []int{s}
				touch(s)
				p.samples++
				if k == kPair {
					p.dups++
					p.samples++
				}
			case kBatch:
				for i := 0; i < jobsBatchItems; i++ {
					s, err := newSpec(idx, k)
					if err != nil {
						return nil, err
					}
					op.specs = append(op.specs, s)
					touch(s)
				}
				p.samples++
			case kHitMem, kHitDurable:
				// Rank every key by recency: rank r means r other keys were
				// touched after it.
				ranked := make([]int, len(p.specs))
				for s := range ranked {
					ranked[s] = s
				}
				sort.Slice(ranked, func(a, b int) bool { return lastTouch[ranked[a]] > lastTouch[ranked[b]] })
				var cands []int
				for r, s := range ranked {
					if k == kHitMem && r < jobsMemRank && p.specs[s].owner <= idx-2 ||
						k == kHitDurable && r >= jobsEvictRank {
						cands = append(cands, s)
					}
				}
				if len(cands) == 0 {
					return nil, fmt.Errorf("plan self-check: no target for a hit at op %d", idx)
				}
				s := cands[rng.Intn(len(cands))]
				op.specs, op.dep = []int{s}, p.specs[s].owner
				touch(s)
				p.samples++
				if k == kHitMem {
					p.memHits++
				} else {
					p.durHits++
				}
			}
			p.ops = append(p.ops, op)
		}
	}
	return p, nil
}

// coldSpec draws the i-th fresh instance: all four classes in turn at n in
// [32, 64], half inline edge lists and half generator specs, run by
// agarwal, exact or the "exact" guarantee. Pair originals are the heaviest
// (n = 64 at three times the density, exact on an undirected class: about
// 20 ms at near-constant rounds), so the duplicate finds them in flight
// even when the client is descheduled for a while between the two POSTs;
// batch items are smaller.
func coldSpec(rng *rand.Rand, i int, kind jobKind) (*jobSpec, error) {
	c := classes[i%4]
	n := 32 + rng.Intn(33)
	spec := jobs.Spec{}
	switch (i / 8) % 3 {
	case 0:
		spec.Algo = jobs.AlgoAgarwal
	case 1:
		spec.Algo = jobs.AlgoExact
	default:
		spec.Guarantee = "exact"
	}
	inline := (i/4)%2 == 0
	density := 4.0
	switch kind {
	case kPair:
		c, n, inline, density = classes[2*(i%2)], 64, i%4 < 2, 12
		spec.Algo, spec.Guarantee = jobs.AlgoExact, ""
	case kBatch:
		n, inline = 32+rng.Intn(17), true
	}
	p := density / float64(n)
	sp := &jobSpec{spec: spec}
	if inline {
		in, err := randomInstance(rng, n, p, c, 16)
		if err != nil {
			return nil, err
		}
		sp.inst = in
		sp.spec.Graph = jobs.GraphSpec{Class: classCode(c), N: n, Edges: make([]jobs.Edge, len(in.edges))}
		for k, e := range in.edges {
			sp.spec.Graph.Edges[k] = jobs.Edge{From: e.From, To: e.To, Weight: e.Weight}
		}
	} else {
		sp.spec.Graph = jobs.GraphSpec{Class: classCode(c), Gen: &jobs.GenSpec{Kind: "random", N: n, P: p, Seed: rng.Int63()}}
	}
	g, opts, err := sp.spec.Resolve(0)
	if err != nil {
		return nil, err
	}
	if !inline {
		sp.inst = instance{n: n, class: c, edges: g.Edges()}
		if sp.inst.ref, err = congestmwc.ReferenceMWC(g); err != nil {
			return nil, err
		}
	}
	sp.algo = string(spec.Algo)
	if spec.Guarantee != "" {
		dec, err := congestmwc.Plan(g, congestmwc.Guarantee(spec.Guarantee), opts)
		if err != nil {
			return nil, err
		}
		sp.algo = dec.Algorithm
	}
	sp.body, err = json.Marshal(sp.spec)
	return sp, err
}

// setup builds every instance's verification graph through the program's
// API, opens the store, the service and the handler, and replays the
// warm-up plan in a closed loop.
func (w *jobsMixed) setup(dir string) error {
	for _, pl := range []*jobPlan{w.plan, w.warm} {
		for _, sp := range pl.specs {
			g, _, err := sp.spec.Resolve(0)
			if err != nil {
				return err
			}
			sp.g = g
		}
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	w.st = st
	w.journal = &timedJournal{Store: st}
	w.svc = jobs.New(jobs.Config{Workers: 1, QueueCap: 256, CacheEntries: jobsCacheEntries, Journal: w.journal})
	w.handler = jobs.NewHandler(w.svc, jobs.HandlerConfig{})
	out := w.execute(w.warm, nil, false, nil)
	for i := range out {
		if out[i].err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, out[i].err)
		}
	}
	return nil
}

func (w *jobsMixed) teardown() error {
	if w.svc == nil {
		return nil
	}
	err := closeService(w.svc)
	if cerr := w.st.Close(); err == nil {
		err = cerr
	}
	w.svc = nil
	return err
}

// settled waits until the service has finished the bookkeeping of every
// job it completed and returns its metrics. A waiter wakes when its job is
// done, before the worker has journaled it and added its rounds to the
// totals, so a pass that snapshots the counters right after the set-up's
// last job would count that job's rounds as its own. The worker records a
// job's rounds and messages in the per-job histograms before the journal
// write and adds them to the totals after it; the service is settled when
// the two agree, with nothing queued or running, on two reads 5 ms apart.
func settled(svc *jobs.Service) (jobs.Metrics, error) {
	deadline := time.Now().Add(time.Minute)
	idle := func(m jobs.Metrics) bool {
		return m.QueueDepth == 0 && m.BusyWorkers == 0 &&
			float64(m.RoundsSimulated) == m.JobRounds.Sum && float64(m.MessagesSimulated) == m.JobMessages.Sum
	}
	for {
		if m := svc.Metrics(); idle(m) {
			time.Sleep(5 * time.Millisecond)
			if m2 := svc.Metrics(); idle(m2) && m2.RoundsSimulated == m.RoundsSimulated {
				return m2, nil
			}
		}
		if time.Now().After(deadline) {
			m := svc.Metrics()
			return m, fmt.Errorf("jobs service did not settle: %d queued, %d busy, %d rounds counted of %.0f",
				m.QueueDepth, m.BusyWorkers, m.RoundsSimulated, m.JobRounds.Sum)
		}
		time.Sleep(time.Millisecond)
	}
}

// closeService drains a jobs service; closing twice is harmless.
func closeService(svc *jobs.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return svc.Close(ctx)
}

// opOutcome is what one op observed; checking happens after the timed
// phase.
type opOutcome struct {
	late     time.Duration
	lat      []time.Duration
	statuses []jobs.Status
	postIDs  []string
	err      error
}

// execute runs a plan: open loop on its schedule, or closed loop (one op
// at a time) for the warm-up. seg, if set, is marked as each op is
// dispatched and once all have finished.
func (w *jobsMixed) execute(pl *jobPlan, tr *tracer, open bool, seg *segmenter) []opOutcome {
	out := make([]opOutcome, len(pl.ops))
	done := make([]chan struct{}, len(pl.ops))
	for i := range done {
		done[i] = make(chan struct{})
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range pl.ops {
		due := time.Now()
		if open {
			due = start.Add(pl.ops[i].at)
			time.Sleep(time.Until(due))
		}
		if seg != nil {
			seg.mark(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done[i])
			op := pl.ops[i]
			out[i].late = time.Since(due)
			if op.dep >= 0 {
				<-done[op.dep]
			}
			out[i].err = w.runOp(pl, i, due, tr, &out[i])
		}()
		if !open {
			wg.Wait()
		}
	}
	wg.Wait()
	if seg != nil {
		seg.mark(len(pl.ops))
	}
	return out
}

// runOp POSTs the op's submission(s), waits with Job.Wait and reads each
// terminal status with one GET.
func (w *jobsMixed) runOp(pl *jobPlan, i int, due time.Time, tr *tracer, o *opOutcome) error {
	op := pl.ops[i]
	var ids []string
	var postDur time.Duration
	if op.kind == kBatch {
		req := jobs.BatchRequest{}
		for _, s := range op.specs {
			req.Jobs = append(req.Jobs, pl.specs[s].spec)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		rec, _ := w.serve(http.MethodPost, "/v1/jobs:batch", body, tr, i, "http.post_batch")
		var resp jobs.BatchResponse
		if err := decodeOK(rec, &resp); err != nil {
			return err
		}
		for _, it := range resp.Results {
			if it.Status == nil {
				return fmt.Errorf("batch item %d: %d %s", it.Index, it.Code, it.Error)
			}
			ids = append(ids, it.Status.ID)
		}
	} else {
		n := 1
		if op.kind == kPair {
			n = 2 // the duplicate goes right after the original's POST
		}
		for k := 0; k < n; k++ {
			rec, d := w.serve(http.MethodPost, "/v1/jobs", pl.specs[op.specs[0]].body, tr, i, "http.post_us")
			if k == 0 {
				postDur = d
			}
			var st jobs.Status
			if err := decodeOK(rec, &st); err != nil {
				return err
			}
			ids = append(ids, st.ID)
		}
	}
	o.postIDs = ids
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, id := range ids {
		j, err := w.svc.Get(id)
		if err != nil {
			return err
		}
		if _, err := j.Wait(ctx); err != nil {
			return fmt.Errorf("wait %s: %w", id, err)
		}
		rec, getDur := w.serve(http.MethodGet, "/v1/jobs/"+id, nil, tr, i, "http.get_us")
		var st jobs.Status
		if err := decodeOK(rec, &st); err != nil {
			return err
		}
		o.statuses = append(o.statuses, st)
		if op.kind != kBatch {
			o.lat = append(o.lat, time.Since(due))
		}
		if tr != nil && op.kind == kCold && st.Started != nil && st.Finished != nil {
			wait, run := st.Started.Sub(st.Created), st.Finished.Sub(*st.Started)
			tr.record("jobs.queue_wait_ms", i, st.Created, wait)
			tr.record("jobs.run_ms", i, *st.Started, run)
			tr.record("jobs.unaccounted_ms", i, due, o.lat[0]-postDur-wait-run-getDur)
		}
	}
	if op.kind == kBatch {
		o.lat = append(o.lat, time.Since(due))
	}
	if tr != nil {
		name := map[jobKind]string{kCold: "jobs.cold_p50_ms", kHitMem: "jobs.hit_p50_ms",
			kHitDurable: "jobs.hit_p50_ms", kBatch: "jobs.batch_p50_ms"}[op.kind]
		if op.kind == kPair {
			tr.record("jobs.cold_p50_ms", i, due, o.lat[0])
			tr.record("jobs.dedup_p50_ms", i, due, o.lat[1])
		} else {
			tr.record(name, i, due, o.lat[0])
		}
	}
	return nil
}

func decodeOK(rec *httptest.ResponseRecorder, v any) error {
	if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
		return fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// stampReader notes when the handler has read the whole request body:
// after it the handler is past decoding and into Service.Submit.
type stampReader struct {
	r   *bytes.Reader
	eof time.Time
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF && s.eof.IsZero() {
		s.eof = time.Now()
	}
	return n, err
}

// stampWriter notes when the handler starts its response: Submit has
// returned.
type stampWriter struct {
	*httptest.ResponseRecorder
	wrote time.Time
}

func (s *stampWriter) WriteHeader(code int) {
	if s.wrote.IsZero() {
		s.wrote = time.Now()
	}
	s.ResponseRecorder.WriteHeader(code)
}

// serve calls the handler in-process. Traced, it records the call under
// name and, for single POSTs, the admission gap between the body's end and
// the response's start as jobs.submit_us.
func (w *jobsMixed) serve(method, path string, body []byte, tr *tracer, op int, name string) (*httptest.ResponseRecorder, time.Duration) {
	var rd io.Reader
	sr := &stampReader{r: bytes.NewReader(body)}
	if body != nil {
		rd = sr
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	if tr == nil {
		w.handler.ServeHTTP(rec, req)
		return rec, 0
	}
	sw := &stampWriter{ResponseRecorder: rec}
	t0 := time.Now()
	w.handler.ServeHTTP(sw, req)
	d := time.Since(t0)
	tr.record(name, op, t0, d)
	if name == "http.post_us" && !sr.eof.IsZero() && !sw.wrote.IsZero() {
		tr.record("jobs.submit_us", op, sr.eof, sw.wrote.Sub(sr.eof))
	}
	return rec, d
}

func (w *jobsMixed) pass(tr *tracer) (*passResult, error) {
	pl := w.plan
	w.journal.tr.Store(tr)
	defer w.journal.tr.Store(nil)
	before, err := settled(w.svc)
	if err != nil {
		return nil, err
	}
	stBefore := w.st.StoreMetrics()
	w.journal.reset()
	seg := newSegmenter(len(pl.ops))
	m := startMeter()
	out := w.execute(pl, tr, true, seg)
	reading := m.stop()
	// A waiter wakes before the worker has counted the job's rounds;
	// draining the service settles the counters.
	if err := closeService(w.svc); err != nil {
		return nil, err
	}
	after, stAfter := w.svc.Metrics(), w.st.StoreMetrics()

	p := &passResult{ops: pl.samples, meter: reading}
	p.note = fmt.Sprintf("worker busy %.1f%%, %d memory hits, %d durable hits, %d dedups",
		100*(after.JobRunSeconds.Sum-before.JobRunSeconds.Sum)/reading.elapsed.Seconds(), pl.memHits, pl.durHits, pl.dups)
	p.rounds = int64(after.RoundsSimulated - before.RoundsSimulated)
	p.messages = int64(after.MessagesSimulated - before.MessagesSimulated)
	p.ratioMax = 1  // exact algorithms only: every checked answer equals its reference
	var first []int // index in p.lat of each segment's first sample
	for i, o := range out {
		op := pl.ops[i]
		for len(first) < segmentCount && i == seg.bounds[len(first)] {
			first = append(first, len(p.lat))
		}
		p.late = append(p.late, ms(o.late))
		samples := 1
		if op.kind == kPair {
			samples = 2
		}
		if o.err != nil {
			for k := 0; k < samples; k++ {
				p.fail("op %d: %v", i, o.err)
			}
			continue
		}
		for _, d := range o.lat {
			p.lat = append(p.lat, ms(d))
		}
		if err := w.check(pl, op, o); err != nil {
			p.fail("op %d: %v", i, err)
		}
	}
	p.segs = seg.cut(first, len(p.lat))
	if got := int(after.CacheHits - before.CacheHits); got != pl.memHits {
		p.invalidf("LRU hits %d, planned %d", got, pl.memHits)
	}
	if got := int(stAfter.DurableHits - stBefore.DurableHits); got != pl.durHits {
		p.invalidf("store.Lookup hits %d, planned %d", got, pl.durHits)
	}
	if got := int(after.Deduped - before.Deduped); got != pl.dups {
		p.invalidf("in-flight dedups %d, planned %d", got, pl.dups)
	}
	if tr != nil {
		subs := float64(after.Submitted-before.Submitted) + float64(after.Deduped-before.Deduped)
		hits := float64(after.CacheHits-before.CacheHits) + float64(stAfter.DurableHits-stBefore.DurableHits)
		ops := float64(p.ops)
		tr.set("jobs.cache_hit_share", hits/subs)
		tr.set("jobs.dedup_share", float64(after.Deduped-before.Deduped)/subs)
		tr.set("jobs.rejected", float64(after.Rejected-before.Rejected))
		w.journal.report(tr, stAfter.Fsyncs-stBefore.Fsyncs, ops)
	}
	return p, nil
}

// check verifies one op's answers against the references, and that each
// path was served the way the plan says.
func (w *jobsMixed) check(pl *jobPlan, op jobOp, o opOutcome) error {
	if op.kind == kPair && o.postIDs[0] != o.postIDs[1] {
		return fmt.Errorf("duplicate got job %s, original %s", o.postIDs[1], o.postIDs[0])
	}
	for k, st := range o.statuses {
		// A batch has one spec per status; a pair's two statuses share one.
		sp := pl.specs[op.specs[min(k, len(op.specs)-1)]]
		if st.State != jobs.StateDone || st.Result == nil {
			return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if hit := op.kind == kHitMem || op.kind == kHitDurable; st.CacheHit != hit {
			return fmt.Errorf("job %s cacheHit=%v on a %v op", st.ID, st.CacheHit, op.kind)
		}
		if string(st.Algo) != sp.algo {
			return fmt.Errorf("job %s ran %s, planned %s", st.ID, st.Algo, sp.algo)
		}
		r := st.Result
		if err := checkAnswer(sp.g, sp.inst.ref, r.Weight, r.Found, r.Cycle, 1); err != nil {
			return fmt.Errorf("job %s (%s n=%d %s): %w", st.ID, sp.inst.class, sp.inst.n, sp.algo, err)
		}
	}
	return nil
}

// attribute re-simulates every job the pass ran cold, through
// RunAlgorithmCtx with the collector attached, for the simulator and phase
// counters; it also times the planner and the set-up's graph builds.
func (w *jobsMixed) attribute(tr *tracer) error {
	ctx := context.Background()
	var insts []instance
	for _, sp := range w.plan.specs {
		g, opts, err := sp.spec.Resolve(0)
		if err != nil {
			return err
		}
		if sp.spec.Guarantee != "" {
			t0 := time.Now()
			if _, err := congestmwc.Plan(g, congestmwc.Guarantee(sp.spec.Guarantee), opts); err != nil {
				return err
			}
			tr.since("congestmwc.plan_us", -1, t0)
		}
		if _, err := tr.run(ctx, sp.owner, sp.algo, g, opts); err != nil {
			return err
		}
		if sp.spec.Graph.Gen == nil {
			insts = append(insts, sp.inst)
		}
	}
	tr.sim.ops = w.plan.samples
	return timeBuilds(tr, insts)
}
