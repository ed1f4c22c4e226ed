// Package jobs is the job-execution service over the congestmwc facade: a
// bounded FIFO admission queue with backpressure, a configurable worker
// pool, an LRU result cache keyed by a canonical graph hash + options
// fingerprint, per-job status tracking and context-based cancellation that
// stops an in-flight simulation within one executed round.
//
// It is the serving substrate for batch MWC workloads (parameter sweeps
// over graph families, approximation-setting matrices) and for the mwcd
// HTTP daemon (cmd/mwcd, docs/SERVER.md): submissions are validated and
// hashed at admission, identical work is answered from the cache, excess
// load is rejected with ErrQueueFull rather than queued unboundedly, and
// shutdown drains running jobs gracefully.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"congestmwc"
	"congestmwc/internal/congest"
	"congestmwc/internal/obs"
)

// Service errors. ErrQueueFull is the distinct backpressure signal: the
// submission was valid but the admission queue is at capacity, so the
// caller should retry later (the daemon maps it to HTTP 429).
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrClosed    = errors.New("jobs: service closed")
	ErrNotFound  = errors.New("jobs: no such job")
	// ErrDraining rejects submissions that land in the shutdown window
	// between SignalDrain and Close: the worker pool is about to stop, so
	// admitting the job would only race the closing queue. Distinct from
	// ErrQueueFull — the right client response is to fail over to another
	// shard (503 + Retry-After), not to retry the same one (429).
	ErrDraining = errors.New("jobs: service draining")
)

// State is a job's lifecycle state: queued → running → one of the four
// terminal states.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"      // completed, result available
	StateFailed    State = "failed"    // algorithm or validation error
	StateCancelled State = "cancelled" // explicit Cancel or service drain
	StateExpired   State = "expired"   // per-job deadline exceeded
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateExpired:
		return true
	}
	return false
}

// Config configures a Service. Zero values select the documented defaults.
type Config struct {
	// Workers is the worker-pool size (default 4).
	Workers int
	// QueueCap bounds the admission queue (default 64). Submissions beyond
	// it fail with ErrQueueFull.
	QueueCap int
	// CacheEntries bounds the LRU result cache (default 256; negative
	// disables caching).
	CacheEntries int
	// DefaultTimeout bounds each job's run unless the job spec sets its
	// own (0 = unbounded).
	DefaultTimeout time.Duration
	// MaxRecords bounds retained job records; the oldest terminal records
	// are pruned beyond it (default 4096).
	MaxRecords int
	// MaxN caps the vertex count of any submitted instance, inline or
	// generated, checked at admission BEFORE the graph is built: a
	// generated spec with a huge N would otherwise cost O(N^2) work and
	// O(N) allocation inside Submit itself, turning one small request into
	// a denial of service. Default 16384; negative disables the cap.
	MaxN int
	// Observe attaches an internal/obs collector to every run: job
	// statuses carry the per-run summary (phase table, peak congestion,
	// wall clock) and service metrics aggregate the peaks.
	Observe bool
	// EventBuffer sizes each job hub's replay ring (Observe only): a
	// subscriber connecting mid-run replays up to this many retained
	// events before going live. 0 keeps the obs.Streamer default.
	EventBuffer int
	// Journal persists job lifecycle events and terminal results
	// (internal/store is the durable implementation). Nil keeps the
	// service purely in-memory.
	Journal Journal
	// IDPrefix is the shard identity prefixed to every generated job ID
	// (e.g. "s0-" yields "s0-j-00000001"). In a cluster it makes job IDs
	// unique across shards, so a router can route status lookups by
	// prefix alone. Empty keeps the single-process "j-%08d" shape.
	IDPrefix string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxRecords <= 0 {
		c.MaxRecords = 4096
	}
	if c.MaxN == 0 {
		c.MaxN = 16384
	}
	return c
}

// Job is one tracked submission. All state transitions happen under mu;
// done closes exactly once, in Service.finish.
type Job struct {
	id   string
	key  string
	spec Spec
	// resolution is what admission derived from spec: the graph and options
	// the run uses, the concrete algorithm (spec.Algo, or the planner's
	// choice for guarantee-driven jobs) and the planner's decision record.
	// It is zero for a recovered job whose spec no longer resolves.
	resolution
	n, m int // the instance size, recorded at admission
	// journaled reports whether the journal holds, or may hold, a record of
	// this job: its admit record, or one from an earlier attempt under a
	// caller-supplied ID. finish journals the terminal state only then.
	journaled bool

	// stream is the job's live event hub (Config.Observe only): state
	// transitions plus the simulation's round/phase/run events, broadcast
	// to any number of subscribers and closed at the terminal state.
	stream *obs.Streamer

	mu          sync.Mutex
	state       State
	result      *congestmwc.Result
	summary     *obs.Summary
	errMsg      string
	cacheHit    bool
	interrupted int
	created     time.Time
	started     time.Time
	finished    time.Time
	cancel      context.CancelFunc
	done        chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Key returns the job's canonical cache key.
func (j *Job) Key() string { return j.key }

// Subscribe returns a live subscription to the job's event stream: the
// buffered events so far (always including the state transitions, and the
// latest simulation events still in the ring) replay first, then events
// arrive as they happen, and the channel closes once the job is terminal.
// It returns nil when the service runs without Config.Observe — there is
// no hub to subscribe to.
func (j *Job) Subscribe(buf int) *obs.Subscription {
	if j.stream == nil {
		return nil
	}
	return j.stream.Subscribe(buf)
}

// Epoch is this job's SSE stream epoch: the attempt number, 1 on a fresh
// submission and interrupted+1 on a job re-admitted after a crash or
// cluster hand-off. Each hand-off attempt runs a fresh event hub whose
// sequence numbers restart at 1; tagging stream IDs with the epoch lets a
// resuming client's Last-Event-ID fence per attempt instead of silently
// suppressing the successor's early events.
func (j *Job) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return uint64(j.interrupted) + 1
}

// publishState broadcasts a state transition on the job's event hub (a
// no-op without one: without Config.Observe streaming costs nothing) and
// closes the hub on terminal states, ending every subscriber's stream.
func (j *Job) publishState(st State, errMsg string) {
	if j.stream == nil {
		return
	}
	j.stream.Publish(obs.Event{Type: obs.EventState, State: string(st), Error: errMsg})
	if st.Terminal() {
		j.stream.Close()
	}
}

// Wait blocks until the job reaches a terminal state or ctx is done, and
// returns the job's status either way (with ctx.Err() when the wait was cut
// short).
func (j *Job) Wait(ctx context.Context) (Status, error) {
	select {
	case <-j.done:
		return j.Status(), nil
	case <-ctx.Done():
		return j.Status(), ctx.Err()
	}
}

// ResultStatus is the JSON shape of a job's (possibly partial) result.
type ResultStatus struct {
	Weight   int64 `json:"weight"`
	Found    bool  `json:"found"`
	Rounds   int   `json:"rounds"`
	Messages int   `json:"messages"`
	Words    int   `json:"words"`
	Cycle    []int `json:"cycle,omitempty"`
}

// Status is a point-in-time snapshot of a job, serialisable as JSON.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Key   string `json:"key"`
	// Algo is the concrete algorithm the job runs — the requested one, or
	// the planner's choice for guarantee-driven jobs.
	Algo Algo `json:"algo"`
	// Guarantee echoes the requested guarantee for guarantee-driven jobs.
	Guarantee string `json:"guarantee,omitempty"`
	// Planner is the planner's decision record (guarantee-driven jobs
	// only): the chosen algorithm, its registered ratio, the cost estimate
	// it won on and a one-line reason.
	Planner  *congestmwc.Decision `json:"planner,omitempty"`
	Tenant   string               `json:"tenant,omitempty"`
	N        int                  `json:"n"`
	M        int                  `json:"m"`
	CacheHit bool                 `json:"cacheHit,omitempty"`
	// InterruptedAttempts counts prior runs of this job cut short by a
	// crash (nonzero only on jobs re-enqueued by Restore).
	InterruptedAttempts int        `json:"interruptedAttempts,omitempty"`
	Created             time.Time  `json:"created"`
	Started             *time.Time `json:"started,omitempty"`
	Finished            *time.Time `json:"finished,omitempty"`
	Error               string     `json:"error,omitempty"`
	// Result carries the answer for done jobs, and the partial progress
	// (rounds/messages/words executed before the stop; Found == false) for
	// cancelled and expired ones.
	Result *ResultStatus `json:"result,omitempty"`
	// Obs is the per-run observability summary (Config.Observe only).
	Obs *obs.Summary `json:"obs,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:                  j.id,
		State:               j.state,
		Key:                 j.key,
		Algo:                j.algo,
		Guarantee:           j.spec.Guarantee,
		Planner:             j.dec,
		Tenant:              j.spec.Tenant,
		N:                   j.n,
		M:                   j.m,
		CacheHit:            j.cacheHit,
		InterruptedAttempts: j.interrupted,
		Created:             j.created,
		Error:               j.errMsg,
		Obs:                 j.summary,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.result != nil {
		st.Result = &ResultStatus{
			Weight:   j.result.Weight,
			Found:    j.result.Found,
			Rounds:   j.result.Rounds,
			Messages: j.result.Messages,
			Words:    j.result.Words,
			Cycle:    j.result.Cycle,
		}
	}
	return st
}

// Service is the job-execution service: admission, queueing, the worker
// pool, the result cache and job records.
type Service struct {
	cfg     Config
	queue   chan *Job
	cache   *resultCache
	journal Journal // nil = in-memory only

	// Lock order: mu → Job.mu → flightMu. The cache, histogram and peak
	// locks are leaves too. Never take mu while holding a Job.mu: record
	// calls Job.terminal under mu.
	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // job IDs in creation order, for pruning
	nextID int64
	closed bool

	// flightMu guards inflight (cache key → non-terminal job, for
	// idempotent dedup). It is its own lock so finish can drop a job
	// without mu, which admission may already hold.
	flightMu sync.Mutex
	inflight map[string]*Job

	wg        sync.WaitGroup
	draining  atomic.Bool
	busy      atomic.Int64
	started   time.Time
	drainCh   chan struct{}
	drainOnce sync.Once

	// Per-job latency/size histograms, observed once per executed job.
	histQueueWait *histogram // seconds from admission to start
	histRun       *histogram // seconds from start to terminal
	histRounds    *histogram // simulated rounds per job
	histMessages  *histogram // delivered messages per job

	submitted  atomic.Uint64
	deduped    atomic.Uint64
	rejected   atomic.Uint64
	doneN      atomic.Uint64
	failedN    atomic.Uint64
	cancelledN atomic.Uint64
	expiredN   atomic.Uint64

	roundsTotal   atomic.Uint64
	messagesTotal atomic.Uint64
	wordsTotal    atomic.Uint64

	peakMu        sync.Mutex
	peakLinkWords int
	peakQueueLen  int
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		queue:    make(chan *Job, cfg.QueueCap),
		cache:    newResultCache(cfg.CacheEntries),
		journal:  cfg.Journal,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		started:  time.Now(),
		drainCh:  make(chan struct{}),
		// Exponential buckets, fixed forever (they are part of the scrape
		// contract): 1ms..~262s for the latency pair, 1..~262k rounds,
		// 16..~4.2M messages.
		histQueueWait: newHistogram(expBuckets(0.001, 4, 10)),
		histRun:       newHistogram(expBuckets(0.001, 4, 10)),
		histRounds:    newHistogram(expBuckets(1, 4, 10)),
		histMessages:  newHistogram(expBuckets(16, 4, 10)),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates and admits one job. Invalid specs fail immediately with
// a descriptive error; a full queue fails with ErrQueueFull (backpressure);
// a cache hit — from the in-memory LRU or, with a journal attached, the
// durable result store — returns a job already in StateDone carrying the
// cached result. A submission whose cache key matches a job still queued or
// running is answered idempotently with that in-flight job instead of
// enqueueing duplicate work. The returned Job is safe for concurrent use.
func (s *Service) Submit(spec Spec) (*Job, error) {
	return s.submit("", spec, 0)
}

// SubmitWithID admits a job under a caller-chosen ID: the cluster hand-off
// path, where a router replays a dead shard's unfinished jobs onto this
// service and clients must keep polling the IDs they already hold. It is
// idempotent per ID — re-admitting an existing ID returns that job
// unchanged — and, like Submit, answers from the result cache when the
// work is already done. Unlike Submit it does not coalesce with an
// in-flight job under a different ID: the handed-off ID must resolve to a
// job of its own. interrupted records how many prior attempts at this job
// were cut short (surfaced as Status.InterruptedAttempts).
func (s *Service) SubmitWithID(id string, spec Spec, interrupted int) (*Job, error) {
	if id == "" {
		return nil, fmt.Errorf("jobs: empty job ID")
	}
	return s.submit(id, spec, interrupted)
}

// submit is Submit and SubmitWithID: resolve outside the lock, refuse work
// once the service is closing, admit with a non-blocking enqueue, and count
// a newly admitted job as submitted.
func (s *Service) submit(id string, spec Spec, interrupted int) (*Job, error) {
	r, err := spec.resolve(s.cfg.MaxN)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	select {
	case <-s.drainCh:
		// SignalDrain has fired: the pool is about to stop, so nothing —
		// not even a cache hit — is admitted in the shutdown window.
		return nil, ErrDraining
	default:
	}
	j, fresh, err := s.admitLocked(id, spec, r, nil, interrupted, s.tryEnqueue)
	if fresh {
		s.submitted.Add(1)
	}
	return j, err
}

// tryEnqueue is the submissions' queueing policy: a non-blocking send, so
// a full queue rejects the job (backpressure) instead of stalling the
// caller.
func (s *Service) tryEnqueue(j *Job) error {
	select {
	case s.queue <- j:
		return nil
	default:
		s.rejected.Add(1)
		return fmt.Errorf("%w (capacity %d)", ErrQueueFull, s.cfg.QueueCap)
	}
}

// admitLocked is the one admission step behind Submit, SubmitWithID and
// Restore. Caller holds s.mu. r is spec's resolution, or rerr why it did
// not resolve (recovery only: submissions return that error instead).
//
// Every difference between the callers follows from one input fact,
// whether the caller supplied the ID (id != ""):
//   - a supplied ID names a job of its own: an ID already known returns
//     that job unchanged, and the job never coalesces with an in-flight
//     job of the same key, as a minted ID's does (counted as Deduped);
//   - a supplied ID carrying this service's IDPrefix moves the ID counter
//     past it, so later minted IDs cannot collide;
//   - a supplied ID may already be in the journal, so a job terminal at
//     birth under it is journaled; under a minted ID it leaves no trace.
//
// Every job is born queued. A cached result (in memory or durable) or a
// resolution error finishes it at once. Otherwise enqueue — the caller's
// queueing policy — takes it; once it does, the job is in flight and its
// admit record is journaled. fresh reports whether a new job was admitted.
func (s *Service) admitLocked(id string, spec Spec, r resolution, rerr error, interrupted int, enqueue func(*Job) error) (j *Job, fresh bool, err error) {
	supplied := id != ""
	if supplied {
		if prior, ok := s.jobs[id]; ok {
			return prior, false, nil
		}
		if n := idSuffix(id); n > s.nextID && strings.HasPrefix(id, s.cfg.IDPrefix) {
			s.nextID = n
		}
	}
	var (
		key    string
		cached *congestmwc.Result
		hit    bool
	)
	if rerr == nil {
		// The key is on the resolved algorithm: a guarantee-driven job
		// shares its cache line with direct submissions of the same
		// algorithm, and two guarantees planning to the same choice share
		// one execution.
		key = cacheKey(r.g, r.algo, r.opts)
		cached, hit = s.lookupLocked(key)
		if !hit && !supplied {
			s.flightMu.Lock()
			prior := s.inflight[key]
			s.flightMu.Unlock()
			if prior != nil {
				s.deduped.Add(1)
				return prior, false, nil
			}
		}
	}
	if !supplied {
		id = s.newIDLocked()
	}
	now := time.Now()
	j = &Job{
		id: id, key: key, spec: spec, resolution: r,
		journaled: supplied || (rerr == nil && !hit), interrupted: interrupted,
		state: StateQueued, created: now, done: make(chan struct{}),
	}
	if r.g != nil {
		j.n, j.m = r.g.N(), r.g.M()
	}
	if s.cfg.Observe {
		// The hub must exist before the job is visible to a worker: runJob
		// reads j.stream without the job lock.
		j.stream = obs.NewStreamer(s.cfg.EventBuffer)
	}
	switch {
	case rerr != nil:
		s.finish(j, StateQueued, outcome{state: StateFailed, err: rerr.Error()})
	case hit:
		j.cacheHit, j.started = true, now
		s.finish(j, StateQueued, outcome{state: StateDone, res: cached})
	default:
		j.publishState(StateQueued, "")
		// j.mu is held until the job is registered in flight and its admit
		// record is journaled. A worker takes j.mu before anything else it
		// does with the job, so the job's finish cannot run before it is
		// registered, and its running and terminal records cannot reach
		// the journal ahead of its admit record (replay would resurrect a
		// finished job).
		j.mu.Lock()
		err = enqueue(j)
		if err == nil {
			s.flightMu.Lock()
			if s.inflight[key] == nil {
				s.inflight[key] = j
			}
			s.flightMu.Unlock()
			s.journalRecord(JournalEvent{
				Type: EventAdmit, ID: id, Key: key, State: StateQueued,
				Time: now, Interrupted: interrupted, Spec: &spec,
			})
		}
		j.mu.Unlock()
		if err != nil {
			return nil, false, err
		}
	}
	s.record(j)
	return j, true, nil
}

// newIDLocked mints the next job ID (Config.IDPrefix + "j-%08d"). Caller
// holds s.mu.
func (s *Service) newIDLocked() string {
	s.nextID++
	return fmt.Sprintf("%sj-%08d", s.cfg.IDPrefix, s.nextID)
}

// lookupLocked consults the in-memory result cache and, on a miss, the
// journal's durable result store (promoting a durable hit into the memory
// cache). Caller holds s.mu.
func (s *Service) lookupLocked(key string) (*congestmwc.Result, bool) {
	if res, ok := s.cache.get(key); ok {
		return res, true
	}
	if s.journal != nil {
		if res, ok := s.journal.Lookup(key); ok {
			s.cache.put(key, res)
			return res, true
		}
	}
	return nil, false
}

// journalRecord forwards one lifecycle event to the journal, if any.
func (s *Service) journalRecord(ev JournalEvent) {
	if s.journal != nil {
		s.journal.Record(ev)
	}
}

// record registers the job and prunes the oldest terminal records beyond
// MaxRecords. Caller holds s.mu.
func (s *Service) record(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.jobs) <= s.cfg.MaxRecords {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		if len(s.jobs) <= s.cfg.MaxRecords {
			kept = append(kept, s.order[i:]...)
			break
		}
		if jb, ok := s.jobs[id]; ok && jb.terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// Get returns the job with the given ID.
func (s *Service) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// maxListLimit caps List's limit parameter: it reaches the service
// unauthenticated via GET /v1/jobs?limit=N, so it must not size any
// allocation directly.
const maxListLimit = 1000

// List returns the most recent jobs, newest first, up to limit (0 = 50,
// clamped to maxListLimit and to the number of retained records).
func (s *Service) List(limit int) []Status {
	if limit <= 0 {
		limit = 50
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	jobs := s.recent(limit)
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// recent returns up to limit of the most recently created jobs, newest
// first. limit must already be clamped to maxListLimit; it is further
// clamped to the number of retained records before sizing the slice.
func (s *Service) recent(limit int) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit > len(s.order) {
		limit = len(s.order)
	}
	jobs := make([]*Job, 0, limit)
	for i := len(s.order) - 1; i >= 0 && len(jobs) < limit; i-- {
		if j, ok := s.jobs[s.order[i]]; ok {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// Cancel cancels the job: a queued job goes terminal immediately, a running
// job's simulation is aborted within one executed round. Cancelling a job
// already in a terminal state is a no-op. The returned status reflects the
// job after the cancellation request (a just-cancelled running job may
// still report StateRunning until its engine observes the abort; Wait for
// the terminal state).
func (s *Service) Cancel(id string) (Status, error) {
	j, err := s.Get(id)
	if err != nil {
		return Status{}, err
	}
	if !s.finish(j, StateQueued, outcome{state: StateCancelled, err: "cancelled while queued"}) {
		j.abort()
	}
	return j.Status(), nil
}

// abort cancels the job's simulation if it is running; runJob then
// finishes it.
func (j *Job) abort() {
	j.mu.Lock()
	if j.state == StateRunning {
		j.cancel()
	}
	j.mu.Unlock()
}

// testBeforeRun, when non-nil, runs in the worker goroutine before each job
// executes. Tests use it to hold the workers so queue overflow is
// deterministic instead of a race against how fast jobs drain.
var testBeforeRun func()

// worker executes queued jobs until the queue is closed by Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if testBeforeRun != nil {
			testBeforeRun()
		}
		s.runJob(j)
	}
}

func (s *Service) runJob(j *Job) {
	if s.draining.Load() {
		// Service shutting down: queued jobs are not started, only
		// already-running ones drain. (A job cancelled while queued has
		// already left StateQueued, and finish leaves it be.)
		s.finish(j, StateQueued, outcome{state: StateCancelled, err: "cancelled by service shutdown"})
		return
	}
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while queued; nothing to run.
		j.mu.Unlock()
		return
	}
	timeout := j.spec.timeout()
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	opts := j.opts
	var col *obs.Collector
	if s.cfg.Observe {
		// Light collector: totals, phase table and peak congestion without
		// the per-round series or per-link maps, so long runs stay O(1) in
		// memory per job. The job's event hub rides along as an observer
		// tee: subscribers get the same round/phase/run stream live.
		col = &obs.Collector{NoSeries: true, NoPerTag: true, NoPerLink: true, Wall: true}
		opts = opts.WithObserver(congest.Multi{col, j.stream})
	}
	j.mu.Unlock()
	j.publishState(StateRunning, "")
	s.journalRecord(JournalEvent{
		Type: EventState, ID: j.id, Key: j.key, State: StateRunning, Time: time.Now(),
	})

	s.busy.Add(1)
	// Dispatch through the portfolio registry; the algo was validated (and,
	// for guarantee-driven jobs, planned) at admission.
	res, err := congestmwc.RunAlgorithmCtx(ctx, string(j.algo), j.g, opts)
	cancel()
	s.busy.Add(-1)

	// res is partial (Found == false) on cancellation and expiry.
	o := outcome{state: StateDone, res: res, col: col}
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		o.state, o.err = StateExpired, err.Error()
	case errors.Is(err, context.Canceled):
		o.state, o.err = StateCancelled, err.Error()
	default:
		o.state, o.err = StateFailed, err.Error()
	}
	s.finish(j, StateRunning, o)
}

// outcome is how a job ends: its terminal state and error, and for a job
// that ran, the run's result (partial unless done) and observer collector.
// A cache hit carries the cached result.
type outcome struct {
	state State
	err   string
	res   *congestmwc.Result
	col   *obs.Collector
}

// finish is the job's one terminal transition. It moves j from state from
// to o.state, or returns false and does nothing when j has already left
// from (a Cancel racing the worker, say). In this fixed order it
//   - sets the terminal state, error, result and finished time;
//   - bumps the state counter;
//   - books the run, if j ran;
//   - puts a result j computed into the cache;
//   - drops j from the in-flight index;
//   - closes done;
//   - publishes the transition (closing the event hub);
//   - appends the journal record (carrying a result j computed).
//
// Metrics, the cache and the in-flight index are therefore settled before
// Wait returns: a resubmission after Wait runs afresh or hits the cache,
// never finds the dead job. The journal append comes last, outside every
// lock, so a durable result write and fsync stay off the waiter's path.
// finish takes j.mu and flightMu only, so it runs with or without s.mu
// held.
func (s *Service) finish(j *Job, from State, o outcome) bool {
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false
	}
	j.state, j.errMsg, j.result, j.finished = o.state, o.err, o.res, time.Now()
	switch o.state {
	case StateDone:
		s.doneN.Add(1)
	case StateFailed:
		s.failedN.Add(1)
	case StateCancelled:
		s.cancelledN.Add(1)
	case StateExpired:
		s.expiredN.Add(1)
	}
	ran := from == StateRunning
	computed := ran && o.state == StateDone
	if ran {
		if o.col != nil {
			j.summary = o.col.Summary()
		}
		s.bookRun(j.started.Sub(j.created), j.finished.Sub(j.started), o.res, o.col)
	}
	if computed {
		s.cache.put(j.key, o.res)
	}
	s.flightMu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.flightMu.Unlock()
	close(j.done)
	journaled, finished := j.journaled, j.finished
	j.mu.Unlock()

	j.publishState(o.state, o.err)
	if journaled {
		ev := JournalEvent{Type: EventState, ID: j.id, Key: j.key, State: o.state, Error: o.err, Time: finished}
		if computed {
			ev.Result = o.res
		}
		s.journalRecord(ev)
	}
	return true
}

// bookRun adds one executed job to the run histograms, the simulated
// rounds/messages/words totals and the peak congestion figures. finish
// calls it under the job lock; it takes only leaf locks (the histograms'
// and peakMu).
func (s *Service) bookRun(queueWait, runTime time.Duration, res *congestmwc.Result, col *obs.Collector) {
	s.histQueueWait.observe(queueWait.Seconds())
	s.histRun.observe(runTime.Seconds())
	if res != nil {
		s.histRounds.observe(float64(res.Rounds))
		s.histMessages.observe(float64(res.Messages))
		s.roundsTotal.Add(uint64(res.Rounds))
		s.messagesTotal.Add(uint64(res.Messages))
		s.wordsTotal.Add(uint64(res.Words))
	}
	if col != nil {
		s.peakMu.Lock()
		if col.PeakLinkWords > s.peakLinkWords {
			s.peakLinkWords = col.PeakLinkWords
		}
		if col.PeakQueueLen > s.peakQueueLen {
			s.peakQueueLen = col.PeakQueueLen
		}
		s.peakMu.Unlock()
	}
}

// Close drains the service: admission stops (Submit returns ErrClosed),
// queued jobs that have not started are cancelled, and running jobs are
// given until ctx is done to finish. If ctx expires first, the running
// simulations are aborted (they stop within one executed round) and Close
// returns ctx.Err() after the workers exit. Close is idempotent.
func (s *Service) Close(ctx context.Context) error {
	s.SignalDrain()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Flush and fsync the journal only after every worker has exited —
		// i.e. after the final state transitions of the last batch were
		// recorded — so a graceful shutdown never loses terminal results.
		if s.journal != nil {
			if err := s.journal.Sync(); err != nil {
				return fmt.Errorf("jobs: journal sync on close: %w", err)
			}
		}
		return nil
	case <-ctx.Done():
		s.abortRunning()
		<-done
		if s.journal != nil {
			_ = s.journal.Sync() // best effort; the drain deadline already expired
		}
		return ctx.Err()
	}
}

// SignalDrain marks the start of a shutdown for streaming consumers
// without stopping the service: the channel returned by Draining closes,
// telling every live event stream (the daemon's SSE handlers) to end so
// the HTTP server's graceful shutdown is not pinned by open streams over
// still-running jobs. Close calls it implicitly; the daemon calls it
// explicitly before http.Server.Shutdown.
func (s *Service) SignalDrain() { s.drainOnce.Do(func() { close(s.drainCh) }) }

// Draining returns a channel closed once shutdown has begun (SignalDrain
// or Close).
func (s *Service) Draining() <-chan struct{} { return s.drainCh }

// Restore rebuilds service state from a journal's recovered snapshot:
// terminal results pre-warm the in-memory cache (so repeats are served from
// disk with zero re-simulation), and jobs that were queued or running when
// the previous process stopped are re-enqueued under their original IDs
// with the interrupted attempt recorded in their status. A pending job
// whose result turns out to be durable already (the crash landed between
// the result write and its journal record) is completed from the cache
// instead of re-running. Call it once, right after New, before serving
// traffic. It returns how many results warmed the cache and how many jobs
// were re-enqueued.
func (s *Service) Restore(rec RecoveredState) (warmed, requeued int, err error) {
	for key, res := range rec.Results {
		if res != nil {
			s.cache.put(key, res)
			warmed++
		}
	}
	pending := append([]RecoveredJob(nil), rec.Pending...)
	sort.Slice(pending, func(i, k int) bool { return pending[i].ID < pending[k].ID })

	var enqueue []*Job
	// Restore's queueing policy: collect the jobs for blocking sends after
	// the lock is released.
	collect := func(j *Job) error {
		enqueue = append(enqueue, j)
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return warmed, 0, ErrClosed
	}
	if rec.MaxID > s.nextID {
		s.nextID = rec.MaxID
	}
	for _, rj := range pending {
		id := rj.ID
		if id == "" {
			id = s.newIDLocked()
		}
		// The spec was valid at its original admission, so journal
		// corruption is the only way it fails to resolve now: the job is
		// then parked as failed rather than dropped silently.
		r, rerr := rj.Spec.resolve(s.cfg.MaxN)
		if rerr != nil {
			rerr = fmt.Errorf("recovery: %w", rerr)
		}
		s.admitLocked(id, rj.Spec, r, rerr, rj.Interrupted, collect)
	}
	s.mu.Unlock()

	// Blocking sends, outside the lock: recovery must not drop work to
	// queue backpressure, and the already-running workers drain the channel
	// even when len(enqueue) exceeds its capacity.
	for _, j := range enqueue {
		s.queue <- j
		requeued++
	}
	return warmed, requeued, nil
}

// idSuffix extracts the numeric suffix of a job ID of shape
// "[prefix-]j-%08d" (0 if the ID has another shape). Shard-prefixed
// cluster IDs ("s0-j-00000042") parse the same as bare ones.
func idSuffix(id string) int64 {
	i := strings.LastIndex(id, "j-")
	if i < 0 {
		return 0
	}
	var n int64
	if _, err := fmt.Sscanf(id[i:], "j-%d", &n); err == nil {
		return n
	}
	return 0
}

// buildVersion reads the module version stamped into the binary, once.
// "(devel)" builds and test binaries report it verbatim; a build without
// build info at all reports "unknown".
var buildVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
})

// abortRunning cancels every currently-running job.
func (s *Service) abortRunning() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.abort()
	}
}

// Metrics is a point-in-time snapshot of the service's operational gauges
// and counters (the daemon's /metrics endpoint renders it).
type Metrics struct {
	QueueDepth  int     `json:"queueDepth"`
	QueueCap    int     `json:"queueCap"`
	Workers     int     `json:"workers"`
	BusyWorkers int     `json:"busyWorkers"`
	Utilization float64 `json:"utilization"`

	// UptimeSeconds is the time since the service was built; BuildVersion
	// and GoVersion identify the binary (debug.ReadBuildInfo).
	UptimeSeconds float64 `json:"uptimeSeconds"`
	BuildVersion  string  `json:"buildVersion"`
	GoVersion     string  `json:"goVersion"`

	// Per-job histograms: queueing latency, run latency and the simulated
	// work per job, in fixed exponential buckets.
	JobQueueWaitSeconds HistogramSnapshot `json:"jobQueueWaitSeconds"`
	JobRunSeconds       HistogramSnapshot `json:"jobRunSeconds"`
	JobRounds           HistogramSnapshot `json:"jobRounds"`
	JobMessages         HistogramSnapshot `json:"jobMessages"`

	Submitted uint64 `json:"submitted"`
	Deduped   uint64 `json:"deduped"`
	Rejected  uint64 `json:"rejected"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Expired   uint64 `json:"expired"`

	CacheEntries   int     `json:"cacheEntries"`
	CacheHits      uint64  `json:"cacheHits"`
	CacheMisses    uint64  `json:"cacheMisses"`
	CacheEvictions uint64  `json:"cacheEvictions"`
	CacheHitRatio  float64 `json:"cacheHitRatio"`

	RoundsSimulated   uint64 `json:"roundsSimulated"`
	MessagesSimulated uint64 `json:"messagesSimulated"`
	WordsSimulated    uint64 `json:"wordsSimulated"`
	PeakLinkWords     int    `json:"peakLinkWords"`
	PeakQueueLen      int    `json:"peakQueueLen"`

	// Store is the persistence subsystem's snapshot; nil when the service
	// runs without a durable journal.
	Store *StoreMetrics `json:"store,omitempty"`
}

// Metrics snapshots the service.
func (s *Service) Metrics() Metrics {
	hits, misses, evictions := s.cache.counters()
	busy := int(s.busy.Load())
	m := Metrics{
		QueueDepth:  len(s.queue),
		QueueCap:    s.cfg.QueueCap,
		Workers:     s.cfg.Workers,
		BusyWorkers: busy,
		Utilization: float64(busy) / float64(s.cfg.Workers),

		UptimeSeconds: time.Since(s.started).Seconds(),
		BuildVersion:  buildVersion(),
		GoVersion:     runtime.Version(),

		JobQueueWaitSeconds: s.histQueueWait.snapshot(),
		JobRunSeconds:       s.histRun.snapshot(),
		JobRounds:           s.histRounds.snapshot(),
		JobMessages:         s.histMessages.snapshot(),

		Submitted: s.submitted.Load(),
		Deduped:   s.deduped.Load(),
		Rejected:  s.rejected.Load(),
		Done:      s.doneN.Load(),
		Failed:    s.failedN.Load(),
		Cancelled: s.cancelledN.Load(),
		Expired:   s.expiredN.Load(),

		CacheEntries:   s.cache.len(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: evictions,

		RoundsSimulated:   s.roundsTotal.Load(),
		MessagesSimulated: s.messagesTotal.Load(),
		WordsSimulated:    s.wordsTotal.Load(),
	}
	if total := hits + misses; total > 0 {
		m.CacheHitRatio = float64(hits) / float64(total)
	}
	s.peakMu.Lock()
	m.PeakLinkWords = s.peakLinkWords
	m.PeakQueueLen = s.peakQueueLen
	s.peakMu.Unlock()
	if sm, ok := s.journal.(StoreMetricser); ok {
		st := sm.StoreMetrics()
		m.Store = &st
	}
	return m
}
