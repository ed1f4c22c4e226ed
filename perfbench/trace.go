package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"congestmwc"
	"congestmwc/internal/congest"
	"congestmwc/internal/jobs"
	"congestmwc/internal/obs"
	"congestmwc/internal/store"
)

// layerMetric is one per-layer metric of the traced run. BENCHMARK.json's
// per_layer list mirrors this table (a test keeps them equal).
type layerMetric struct {
	name, unit, better string
}

// phaseNames are the leaf phase spans the workloads run, with ':' → '.'.
var phaseNames = []string{
	"girth.sampled-bfs", "girth.neighbourhood-bfs", "girth.convergecast",
	"dirmwc.sample-dist", "dirmwc.sxs-broadcast", "dirmwc.short-cycles", "dirmwc.convergecast",
	"wmwc.long-cycles", "wmwc.short-cycles",
	"ksssp.sample-bfs", "ksssp.skeleton-broadcast", "ksssp.source-bfs", "ksssp.source-broadcast", "ksssp.sequential",
	"agarwal.tree", "agarwal.batch-sssp", "agarwal.exchange", "agarwal.convergecast",
	"exact.apsp", "exact.exchange", "exact.convergecast",
}

func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"congestmwc.newgraph_ms", "ms", "lower"},
		{"graph.build_ms", "ms", "lower"},
		{"congestmwc.plan_us", "us", "lower"},
		{"congestmwc.run_ms", "ms", "lower"},
		{"congest.executed_rounds_per_op", "count", "lower"},
		{"congest.skipped_round_share", "share", "higher"},
		{"congest.activations_per_op", "count", "lower"},
		{"congest.round_wall_us", "us", "lower"},
		{"congest.ns_per_message", "ns", "lower"},
	}
	for _, p := range phaseNames {
		ms = append(ms,
			layerMetric{p + ".wall_ms", "ms", "lower"},
			layerMetric{p + ".rounds", "count", "lower"},
			layerMetric{p + ".messages", "count", "lower"})
	}
	return append(ms,
		layerMetric{"jobs.submit_us", "us", "lower"},
		layerMetric{"jobs.queue_wait_ms", "ms", "lower"},
		layerMetric{"jobs.run_ms", "ms", "lower"},
		layerMetric{"jobs.unaccounted_ms", "ms", "lower"},
		layerMetric{"jobs.cold_p50_ms", "ms", "lower"},
		layerMetric{"jobs.hit_p50_ms", "ms", "lower"},
		layerMetric{"jobs.dedup_p50_ms", "ms", "lower"},
		layerMetric{"jobs.batch_p50_ms", "ms", "lower"},
		layerMetric{"jobs.cache_hit_share", "share", "higher"},
		layerMetric{"jobs.dedup_share", "share", "higher"},
		layerMetric{"jobs.rejected", "count", "lower"},
		layerMetric{"http.post_us", "us", "lower"},
		layerMetric{"http.get_us", "us", "lower"},
		layerMetric{"store.record_us", "us", "lower"},
		layerMetric{"store.records_per_op", "count", "lower"},
		layerMetric{"store.lookup_us", "us", "lower"},
		layerMetric{"store.lookup_hit_share", "share", "higher"},
		layerMetric{"store.wal_bytes_per_op", "bytes", "lower"},
		layerMetric{"store.fsyncs_per_op", "count", "lower"},
		layerMetric{"store.session_write_us", "us", "lower"},
		layerMetric{"session.patch_us", "us", "lower"},
		layerMetric{"session.query_us", "us", "lower"},
		layerMetric{"session.recompute_ms", "ms", "lower"},
		layerMetric{"session.witness_kept_share", "share", "higher"},
		layerMetric{"session.rounds_per_patch", "count", "lower"},
		layerMetric{"runtime.alloc_mb_per_op", "MB", "lower"},
		layerMetric{"runtime.gc_cycles_per_op", "count", "lower"},
		layerMetric{"runtime.gc_pause_ms", "ms", "lower"},
		layerMetric{"loadgen.late_p99_ms", "ms", "lower"},
		layerMetric{"loadgen.ops_attempted", "count", "higher"},
		layerMetric{"loadgen.ops_failed", "count", "lower"},
		layerMetric{"trace.overhead_share", "share", "lower"},
	)
}

// span is one timed call the benchmark made into a layer, or one phase
// span the program's obs.Collector recorded; spans stay in memory and are
// written as JSON lines when the run ends.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	StartUs float64 `json:"startUs"`
	DurUs   float64 `json:"durUs"`
	Rounds  int     `json:"rounds,omitempty"`
	Msgs    int     `json:"messages,omitempty"`
}

// tracer collects the traced pass. Every method is a no-op on a nil
// tracer, so the untraced pass runs the same code without recording.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	calls  map[string][]time.Duration // per-call timings, keyed by metric name
	values map[string]float64         // metrics a workload sets directly
	spans  []span
	sim    simStats
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), calls: map[string][]time.Duration{}, values: map[string]float64{}}
}

// since records the call that started at t0 under metric name.
func (t *tracer) since(name string, op int, t0 time.Time) {
	if t == nil {
		return
	}
	t.record(name, op, t0, time.Since(t0))
}

func (t *tracer) record(name string, op int, t0 time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.calls[name] = append(t.calls[name], d)
	t.spans = append(t.spans, span{Name: name, Op: op, StartUs: us(t0.Sub(t.origin)), DurUs: us(d)})
	t.mu.Unlock()
}

func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = v
	t.mu.Unlock()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// simStats aggregates the simulator and phase counters of observed runs.
type simStats struct {
	ops                                 int // workload ops the runs are normalised by
	runs                                int
	executed, rounds, msgs, activations int64
	wallNs, runNs                       int64
	phaseWall, phaseRounds, phaseMsgs   map[string]int64
}

// levelSeg matches the per-level span wmwc opens inside short-cycles.
var levelSeg = regexp.MustCompile(`^level-\d+$`)

// phaseKey names a span by its innermost segment that is not a level
// index, with ':' → '.' ("wmwc:short-cycles/level-3" → "wmwc.short-cycles").
func phaseKey(path string) string {
	segs := strings.Split(path, "/")
	for i := len(segs) - 1; i >= 0; i-- {
		if !levelSeg.MatchString(segs[i]) {
			return strings.ReplaceAll(segs[i], ":", ".")
		}
	}
	return path
}

// roundCounter counts executed rounds: the observer callback fires once per
// executed round and never for rounds the event-driven scheduler skipped.
type roundCounter struct{ n int64 }

func (c *roundCounter) OnRound(int)                          { c.n++ }
func (c *roundCounter) OnMessage(int, int, int, congest.Msg) {}
func (c *roundCounter) WantsMessages() bool                  { return false }

// run executes one algorithm with an obs.Collector and a round counter
// attached and folds their counters into the tracer's simulator totals.
func (t *tracer) run(ctx context.Context, op int, algo string, g *congestmwc.Graph, opts congestmwc.Options) (*congestmwc.Result, error) {
	col := &obs.Collector{NoSeries: true, NoPerTag: true, NoPerLink: true, Wall: true}
	cnt := &roundCounter{}
	t0 := time.Now()
	res, err := congestmwc.RunAlgorithmCtx(ctx, algo, g, opts.WithObserver(congest.Multi{col, cnt}))
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.sim
	if s.phaseWall == nil {
		s.phaseWall, s.phaseRounds, s.phaseMsgs = map[string]int64{}, map[string]int64{}, map[string]int64{}
	}
	s.runs++
	s.executed += cnt.n
	s.rounds += int64(col.Rounds)
	s.msgs += int64(col.Messages)
	s.activations += int64(col.Activations)
	s.wallNs += col.WallNs
	s.runNs += d.Nanoseconds()
	for _, p := range col.Phases {
		k := phaseKey(p.Path)
		s.phaseWall[k] += p.WallNs
		s.phaseRounds[k] += int64(p.Rounds)
		s.phaseMsgs[k] += int64(p.Messages)
		t.spans = append(t.spans, span{Name: "phase:" + p.Path, Op: op, DurUs: float64(p.WallNs) / 1e3,
			Rounds: p.Rounds, Msgs: p.Messages})
	}
	t.spans = append(t.spans, span{Name: "congestmwc.run", Op: op, StartUs: us(t0.Sub(t.origin)), DurUs: us(d),
		Rounds: col.Rounds, Msgs: col.Messages})
	return res, err
}

// writeSpans writes every recorded span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer assembles every per-layer metric: call medians and direct values
// from the traced pass, simulator and phase counters from the collector
// runs, runtime and load-generator figures from the untraced pass. Metrics
// of layers the workload does not exercise read 0.
func perLayer(t *tracer, base, traced *passResult) map[string]metric {
	out := map[string]metric{}
	for _, m := range layerMetrics() {
		out[m.name] = metric{0, m.unit}
	}
	put := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }
	for name, ds := range t.calls {
		if _, ok := out[name]; !ok {
			continue // spans only, no metric of their own
		}
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d.Nanoseconds()) / unitNs(out[name].Unit)
		}
		put(name, median(xs))
	}
	for name, v := range t.values {
		put(name, v)
	}
	if s := t.sim; s.runs > 0 {
		ops := float64(s.ops)
		put("congestmwc.run_ms", float64(s.runNs)/1e6/float64(s.runs))
		put("congest.executed_rounds_per_op", float64(s.executed)/ops)
		put("congest.skipped_round_share", 1-float64(s.executed)/float64(s.rounds))
		put("congest.activations_per_op", float64(s.activations)/ops)
		put("congest.round_wall_us", float64(s.wallNs)/1e3/float64(s.executed))
		put("congest.ns_per_message", float64(s.wallNs)/float64(s.msgs))
		for k, w := range s.phaseWall {
			if _, ok := out[k+".wall_ms"]; !ok {
				fmt.Fprintf(os.Stderr, "perfbench: phase %s is not in the metric table\n", k)
				continue
			}
			put(k+".wall_ms", float64(w)/1e6/ops)
			put(k+".rounds", float64(s.phaseRounds[k])/ops)
			put(k+".messages", float64(s.phaseMsgs[k])/ops)
		}
	}
	ops := float64(base.ops)
	put("runtime.alloc_mb_per_op", float64(base.meter.allocs)/(1<<20)/ops)
	put("runtime.gc_cycles_per_op", float64(base.meter.gcs)/ops)
	put("runtime.gc_pause_ms", ms(base.meter.gcPause))
	put("loadgen.late_p99_ms", percentile(base.late, 99))
	put("loadgen.ops_attempted", float64(base.ops))
	put("loadgen.ops_failed", float64(base.failed))
	put("trace.overhead_share", (traced.meter.cpu.Seconds()/float64(traced.ops))/(base.meter.cpu.Seconds()/ops)-1)
	return out
}

func unitNs(unit string) float64 {
	switch unit {
	case "us":
		return 1e3
	case "ms":
		return 1e6
	}
	return 1
}

// timedJournal wraps the jobs.Journal seam with per-call timers while a
// traced pass has set tr; otherwise it only forwards. Traced, it also
// counts the WAL bytes each record appends: the store's WALBytes is the
// current log size, which drops when the log is compacted.
type timedJournal struct {
	*store.Store
	tr                     atomic.Pointer[tracer]
	mu                     sync.Mutex
	records, lookups, hits int
	walBytes               int64
}

func (j *timedJournal) Record(ev jobs.JournalEvent) {
	tr := j.tr.Load()
	if tr == nil {
		j.Store.Record(ev)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	before := j.Store.StoreMetrics().WALBytes
	t0 := time.Now()
	j.Store.Record(ev)
	tr.since("store.record_us", -1, t0)
	if grown := j.Store.StoreMetrics().WALBytes - before; grown > 0 {
		j.walBytes += grown // a record that triggered compaction goes uncounted
	}
	j.records++
}

// reset zeroes the tallies at the start of a pass.
func (j *timedJournal) reset() {
	j.mu.Lock()
	j.records, j.lookups, j.hits, j.walBytes = 0, 0, 0, 0
	j.mu.Unlock()
}

// report sets the traced pass's store metrics: the journal tallies plus
// the fsyncs the store counted over the pass, per op.
func (j *timedJournal) report(tr *tracer, fsyncs uint64, ops float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	tr.set("store.records_per_op", float64(j.records)/ops)
	tr.set("store.lookup_hit_share", float64(j.hits)/float64(max(j.lookups, 1)))
	tr.set("store.wal_bytes_per_op", float64(j.walBytes)/ops)
	tr.set("store.fsyncs_per_op", float64(fsyncs)/ops)
}

func (j *timedJournal) Lookup(key string) (*congestmwc.Result, bool) {
	tr := j.tr.Load()
	if tr == nil {
		return j.Store.Lookup(key)
	}
	t0 := time.Now()
	res, ok := j.Store.Lookup(key)
	tr.since("store.lookup_us", -1, t0)
	j.mu.Lock()
	j.lookups++
	if ok {
		j.hits++
	}
	j.mu.Unlock()
	return res, ok
}

// timedSessions wraps the session.SessionStore seam with a per-call timer
// while a traced pass has set tr.
type timedSessions struct {
	*store.Store
	tr atomic.Pointer[tracer]
}

func (s *timedSessions) WriteSession(rec *store.SessionRecord) error {
	tr := s.tr.Load()
	if tr == nil {
		return s.Store.WriteSession(rec)
	}
	t0 := time.Now()
	err := s.Store.WriteSession(rec)
	tr.since("store.session_write_us", -1, t0)
	return err
}
