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
// done closes exactly once, on entering a terminal state.
type Job struct {
	id    string
	key   string
	spec  Spec
	graph *congestmwc.Graph
	opts  congestmwc.Options
	// algo is the concrete portfolio algorithm this job runs: spec.Algo for
	// direct submissions, the planner's choice for guarantee-driven ones.
	algo Algo
	// decision is the planner's record for guarantee-driven jobs (nil for
	// direct submissions); surfaced in Status.
	decision *congestmwc.Decision

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
// no-op without one) and closes the hub on terminal states, ending every
// subscriber's stream.
func (j *Job) publishState(st State, errMsg string) {
	if j.stream == nil {
		return
	}
	j.stream.Publish(obs.Event{Type: obs.EventState, State: string(st), Error: errMsg})
	if st.Terminal() {
		j.stream.Close()
	}
}

// attachStream gives the job its event hub and publishes the initial
// state. Without Config.Observe this is a no-op: jobs then carry no hub,
// publishState does nothing, and streaming costs nothing.
func (s *Service) attachStream(j *Job, st State) {
	if !s.cfg.Observe {
		return
	}
	j.stream = obs.NewStreamer(s.cfg.EventBuffer)
	j.publishState(st, j.errMsg)
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
		Planner:             j.decision,
		Tenant:              j.spec.Tenant,
		N:                   j.graph.N(),
		M:                   j.graph.M(),
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

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // job IDs in creation order, for pruning
	inflight map[string]*Job // cache key → non-terminal job, for idempotent dedup
	nextID   int64
	closed   bool

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
	r, err := spec.resolve(s.cfg.MaxN)
	if err != nil {
		return nil, err
	}
	g, opts := r.g, r.opts
	// The key is on the resolved algorithm: a guarantee-driven job shares
	// its cache line with direct submissions of the same algorithm, and two
	// guarantees planning to the same choice share one execution.
	key := cacheKey(g, r.algo, opts)

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
	if res, ok := s.lookupLocked(key); ok {
		now := time.Now()
		j := &Job{
			id:       s.newIDLocked(),
			key:      key,
			spec:     spec,
			graph:    g,
			opts:     opts,
			algo:     r.algo,
			decision: r.dec,
			state:    StateDone,
			result:   res,
			cacheHit: true,
			created:  now,
			started:  now,
			finished: now,
			done:     make(chan struct{}),
		}
		close(j.done)
		s.attachStream(j, StateDone) // hub is born closed: replay says done
		s.doneN.Add(1)
		s.submitted.Add(1)
		s.record(j)
		// Cache-hit jobs are not journaled: they are terminal at birth and
		// their result is already durable (or the service is in-memory).
		return j, nil
	}
	if prior := s.inflight[key]; prior != nil {
		s.deduped.Add(1)
		return prior, nil
	}
	j := &Job{
		id:       s.newIDLocked(),
		key:      key,
		spec:     spec,
		graph:    g,
		opts:     opts,
		algo:     r.algo,
		decision: r.dec,
		state:    StateQueued,
		created:  time.Now(),
		done:     make(chan struct{}),
	}
	// The hub must exist before the job is visible to a worker: runJob
	// reads j.stream without the job lock.
	s.attachStream(j, StateQueued)
	select {
	case s.queue <- j:
	default:
		s.rejected.Add(1)
		return nil, fmt.Errorf("%w (capacity %d)", ErrQueueFull, s.cfg.QueueCap)
	}
	s.inflight[key] = j
	s.submitted.Add(1)
	s.record(j)
	s.journalRecord(JournalEvent{
		Type: EventAdmit, ID: j.id, Key: key, State: StateQueued,
		Time: j.created, Spec: &spec,
	})
	return j, nil
}

// newIDLocked mints the next job ID (Config.IDPrefix + "j-%08d"). Caller
// holds s.mu.
func (s *Service) newIDLocked() string {
	s.nextID++
	return fmt.Sprintf("%sj-%08d", s.cfg.IDPrefix, s.nextID)
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
	r, err := spec.resolve(s.cfg.MaxN)
	if err != nil {
		return nil, err
	}
	g, opts := r.g, r.opts
	key := cacheKey(g, r.algo, opts)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	select {
	case <-s.drainCh:
		return nil, ErrDraining
	default:
	}
	if prior, ok := s.jobs[id]; ok {
		return prior, nil
	}
	// Keep the ID counter ahead of adopted IDs that carry our own prefix,
	// so later Submit calls cannot mint a colliding ID. Foreign prefixes
	// (another shard's handed-off jobs) can never collide with ours.
	if n := idSuffix(id); n > s.nextID && (s.cfg.IDPrefix == "" || len(id) > len(s.cfg.IDPrefix) && id[:len(s.cfg.IDPrefix)] == s.cfg.IDPrefix) {
		s.nextID = n
	}
	now := time.Now()
	if res, ok := s.lookupLocked(key); ok {
		j := &Job{
			id: id, key: key, spec: spec, graph: g, opts: opts,
			algo: r.algo, decision: r.dec,
			state: StateDone, result: res, cacheHit: true,
			interrupted: interrupted,
			created:     now, started: now, finished: now,
			done: make(chan struct{}),
		}
		close(j.done)
		s.attachStream(j, StateDone)
		s.doneN.Add(1)
		s.submitted.Add(1)
		s.record(j)
		// Mark the adopted job terminal in the journal (its result is
		// already durable here) so a later recovery does not re-enqueue it.
		s.journalRecord(JournalEvent{
			Type: EventState, ID: id, Key: key, State: StateDone, Time: now,
		})
		return j, nil
	}
	j := &Job{
		id: id, key: key, spec: spec, graph: g, opts: opts,
		algo: r.algo, decision: r.dec,
		state: StateQueued, interrupted: interrupted,
		created: now, done: make(chan struct{}),
	}
	s.attachStream(j, StateQueued)
	select {
	case s.queue <- j:
	default:
		s.rejected.Add(1)
		return nil, fmt.Errorf("%w (capacity %d)", ErrQueueFull, s.cfg.QueueCap)
	}
	if s.inflight[key] == nil {
		s.inflight[key] = j
	}
	s.submitted.Add(1)
	s.record(j)
	s.journalRecord(JournalEvent{
		Type: EventAdmit, ID: id, Key: key, State: StateQueued,
		Time: now, Interrupted: interrupted, Spec: &spec,
	})
	return j, nil
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

// clearInflight drops the job from the in-flight dedup index once it is
// terminal. The identity check guards against a newer job reusing the key.
func (s *Service) clearInflight(key string, j *Job) {
	s.mu.Lock()
	if s.inflight[key] == j {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
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
	j.mu.Lock()
	var cancelled bool
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.errMsg = "cancelled while queued"
		j.finished = time.Now()
		close(j.done)
		s.cancelledN.Add(1)
		cancelled = true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	if cancelled {
		j.publishState(StateCancelled, "cancelled while queued")
		s.journalRecord(JournalEvent{
			Type: EventState, ID: j.id, Key: j.key,
			State: StateCancelled, Error: "cancelled while queued", Time: time.Now(),
		})
		s.clearInflight(j.key, j)
	}
	return j.Status(), nil
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
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while queued; nothing to run.
		j.mu.Unlock()
		return
	}
	if s.draining.Load() {
		// Service shutting down: queued jobs are not started, only
		// already-running ones drain.
		j.state = StateCancelled
		j.errMsg = "cancelled by service shutdown"
		j.finished = time.Now()
		close(j.done)
		s.cancelledN.Add(1)
		j.mu.Unlock()
		j.publishState(StateCancelled, "cancelled by service shutdown")
		s.journalRecord(JournalEvent{
			Type: EventState, ID: j.id, Key: j.key,
			State: StateCancelled, Error: "cancelled by service shutdown", Time: time.Now(),
		})
		s.clearInflight(j.key, j)
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
	res, err := congestmwc.RunAlgorithmCtx(ctx, string(j.algo), j.graph, opts)
	cancel()
	s.busy.Add(-1)

	j.mu.Lock()
	j.finished = time.Now()
	j.result = res // partial (Found == false) on cancellation/expiry
	if col != nil {
		j.summary = col.Summary()
	}
	switch {
	case err == nil:
		j.state = StateDone
		s.cache.put(j.key, res)
		s.doneN.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateExpired
		j.errMsg = err.Error()
		s.expiredN.Add(1)
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.errMsg = err.Error()
		s.cancelledN.Add(1)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.failedN.Add(1)
	}
	final, finalErr := j.state, j.errMsg
	// Book the run into the service totals before the job turns terminal:
	// Metrics read right after Wait must already include it.
	s.bookRun(j.started.Sub(j.created), j.finished.Sub(j.started), res, col)
	close(j.done)
	j.mu.Unlock()

	j.publishState(final, finalErr) // terminal: closes the event hub
	ev := JournalEvent{Type: EventState, ID: j.id, Key: j.key, State: final, Error: finalErr, Time: time.Now()}
	if final == StateDone {
		ev.Result = res
	}
	s.journalRecord(ev)
	s.clearInflight(j.key, j)
}

// bookRun adds one executed job to the run histograms, the simulated
// rounds/messages/words totals and the peak congestion figures. runJob
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
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return warmed, 0, ErrClosed
	}
	if rec.MaxID > s.nextID {
		s.nextID = rec.MaxID
	}
	for _, rj := range pending {
		if n := idSuffix(rj.ID); n > s.nextID {
			s.nextID = n
		}
		now := time.Now()
		j := &Job{
			id:          rj.ID,
			spec:        rj.Spec,
			interrupted: rj.Interrupted,
			created:     now,
			done:        make(chan struct{}),
		}
		if j.id == "" {
			j.id = s.newIDLocked()
		}
		r, rerr := rj.Spec.resolve(s.cfg.MaxN)
		if rerr != nil {
			// The spec was valid at its original admission; journal
			// corruption is the only way here. Park the job as failed
			// rather than dropping it silently.
			j.graph, j.opts = emptyGraph(), congestmwc.Options{}
			j.state = StateFailed
			j.errMsg = "recovery: " + rerr.Error()
			j.finished = now
			close(j.done)
			s.attachStream(j, StateFailed)
			s.failedN.Add(1)
			s.record(j)
			s.journalRecord(JournalEvent{
				Type: EventState, ID: j.id, State: StateFailed, Error: j.errMsg, Time: now,
			})
			continue
		}
		j.graph, j.opts, j.key = r.g, r.opts, cacheKey(r.g, r.algo, r.opts)
		j.algo, j.decision = r.algo, r.dec
		if res, ok := s.lookupLocked(j.key); ok {
			j.state = StateDone
			j.result = res
			j.cacheHit = true
			j.started, j.finished = now, now
			close(j.done)
			s.attachStream(j, StateDone)
			s.doneN.Add(1)
			s.record(j)
			// Mark the job terminal in the journal (the result itself is
			// already durable) so the next recovery does not re-enqueue it.
			s.journalRecord(JournalEvent{
				Type: EventState, ID: j.id, Key: j.key, State: StateDone, Time: now,
			})
			continue
		}
		j.state = StateQueued
		s.attachStream(j, StateQueued)
		s.record(j)
		if s.inflight[j.key] == nil {
			s.inflight[j.key] = j
		}
		s.journalRecord(JournalEvent{
			Type: EventAdmit, ID: j.id, Key: j.key, State: StateQueued,
			Time: now, Interrupted: rj.Interrupted, Spec: &rj.Spec,
		})
		enqueue = append(enqueue, j)
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

// emptyGraph is the placeholder graph of an unrecoverable job record.
func emptyGraph() *congestmwc.Graph {
	g, err := congestmwc.NewGraph(1, nil, congestmwc.Undirected)
	if err != nil {
		panic(err)
	}
	return g
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
		j.mu.Lock()
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
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
