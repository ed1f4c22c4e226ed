// Package session manages dynamic graph sessions: long-lived mutable
// graphs that clients edit with batches of edge insert/delete/reweight
// ops and query for the current minimum weight cycle.
//
// The subsystem layers on internal/jobs — every recompute is an ordinary
// job through the existing admission queue, worker pool and result cache —
// and adds witness-scoped invalidation on top: an edit that provably
// cannot change the cached answer (insert at least as heavy as the current
// MWC, delete or reweight-up off the witness cycle) is absorbed with ZERO
// simulation, the cached result stays valid and queries keep answering
// from it. Everything else bumps the session version and schedules an
// exact/approx recompute of the current edge set.
//
// The safety argument (edge weights are non-negative, and a cached
// approximate answer is always the weight of a real cycle):
//
//   - insert(u,v,w): every new cycle passes through the new edge, so it
//     weighs >= w. If w >= the cached weight, no new cycle beats the
//     cached one and the old optimum is untouched — the answer (and its
//     approximation guarantee) stands. With no cycle cached, any insert
//     may close the first cycle: invalidate.
//   - delete(u,v): deletion only removes cycles, so the optimum can only
//     grow. If the witness cycle does not use (u,v) it survives at the
//     same weight and remains at most the (non-decreased) optimum times
//     the original ratio. On a cycle-free graph deletion keeps it
//     cycle-free: always safe.
//   - reweight(u,v,w'): with w' >= w and (u,v) off the witness, every
//     cycle's weight is non-decreasing while the witness is unchanged —
//     same argument as delete. Reweighting down, or touching the witness,
//     invalidates. On a cycle-free graph reweighting cannot create a
//     cycle: always safe.
//
// A found result without a reconstructed witness cycle (possible for
// approximate runs) falls back to the conservative subset: only the
// insert-heavier rule applies.
//
// Sessions are durable through internal/store (one atomically-rewritten
// JSON file per session), survive restarts, and hand off through the
// cluster router like jobs do. Each session carries an obs.Streamer hub
// (when observability is on) publishing clean/computing state transitions
// as SSE events, epoch-fenced by the session generation.
package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"congestmwc"
	"congestmwc/internal/jobs"
	"congestmwc/internal/obs"
	"congestmwc/internal/store"
)

// State is a session's recompute state.
type State string

// Session states.
const (
	// StateClean: the cached result answers for the current edge set.
	StateClean State = "clean"
	// StateComputing: a recompute for the current version is in flight
	// (or queued); queries see the previous answer's staleness.
	StateComputing State = "computing"
	// StateFailed: the last recompute ended in an error; the next PATCH
	// retries it.
	StateFailed State = "failed"
)

// Errors surfaced to the HTTP layer.
var (
	// ErrNotFound: no session with that ID.
	ErrNotFound = errors.New("session: not found")
	// ErrTooMany: the session table is full.
	ErrTooMany = errors.New("session: too many open sessions")
	// ErrClosed: the manager is shutting down.
	ErrClosed = errors.New("session: manager closed")
)

// Op is one edge mutation of a PATCH batch.
type Op struct {
	// Op is the mutation kind: insert | delete | reweight.
	Op   string `json:"op"`
	From int    `json:"from"`
	To   int    `json:"to"`
	// Weight is the new edge weight (insert and reweight; ignored for
	// delete, forced to 1 on unweighted classes).
	Weight int64 `json:"weight,omitempty"`
}

// Op kinds.
const (
	OpInsert   = "insert"
	OpDelete   = "delete"
	OpReweight = "reweight"
)

// SessionStore is the durability seam: internal/store implements it; nil
// keeps sessions in-memory only.
type SessionStore interface {
	WriteSession(*store.SessionRecord) error
	DeleteSession(string) error
	ReadSessions() ([]*store.SessionRecord, error)
}

// Config configures a Manager.
type Config struct {
	// Jobs runs the recomputes. Required.
	Jobs *jobs.Service
	// Store persists sessions (nil = in-memory only).
	Store SessionStore
	// IDPrefix prefixes session IDs ("s0-" yields "s0-g-00000001"), the
	// same shard identity job IDs carry.
	IDPrefix string
	// MaxSessions caps the open-session table (default 1024).
	MaxSessions int
	// MaxN caps created instances, like jobs.Config.MaxN (<= 0 = no cap).
	MaxN int
	// Observe attaches an SSE event hub to every session.
	Observe bool
}

// Manager owns the session table.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int64
	closed   bool

	// stop is cancelled by Close; loops counts running recompute loops,
	// which Close waits for.
	stop     context.Context
	stopLoop context.CancelFunc
	loops    sync.WaitGroup

	created       atomic.Uint64
	closedN       atomic.Uint64
	patches       atomic.Uint64
	ops           atomic.Uint64
	witnessKept   atomic.Uint64
	invalidations atomic.Uint64
	recomputes    atomic.Uint64
	queries       atomic.Uint64
	cachedAnswers atomic.Uint64
	restored      atomic.Uint64
}

// NewManager builds the session manager over a job service.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Jobs == nil {
		return nil, fmt.Errorf("session: Config.Jobs is required")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	m := &Manager{cfg: cfg, sessions: make(map[string]*Session)}
	m.stop, m.stopLoop = context.WithCancel(context.Background())
	return m, nil
}

// Session is one dynamic graph: a mutable edge set, the cached MWC answer
// with the mutation version it is valid for, and the recompute machinery.
type Session struct {
	id  string
	mgr *Manager

	mu       sync.Mutex
	spec     jobs.Spec // algo/options/tenant template; Graph only carries the class
	class    congestmwc.Class
	n        int
	directed bool
	edges    map[[2]int]int64

	version       uint64 // mutations applied (1 at creation)
	generation    uint64 // owning-process counter; SSE epoch
	result        *congestmwc.Result
	resultVersion uint64
	computing     bool
	failedMsg     string

	created time.Time
	updated time.Time
	closed  bool
	cleanCh chan struct{} // replaced+closed whenever version catches up or fails

	stream *obs.Streamer
}

// edgeKey canonicalises an endpoint pair: undirected edges are stored
// min-first so (u,v) and (v,u) address the same edge.
func (s *Session) edgeKey(u, v int) [2]int {
	if !s.directed && u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// Create opens a session from a job spec (the spec's graph — inline edges
// or a generator — seeds the edge set; its algo, options, timeout and
// tenant template every recompute). The first compute is scheduled
// immediately; a result cached by the job service answers it without
// simulation.
func (m *Manager) Create(spec jobs.Spec) (*Session, error) {
	g, _, err := spec.Resolve(m.cfg.MaxN)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (cap %d)", ErrTooMany, m.cfg.MaxSessions)
	}
	m.nextID++
	id := fmt.Sprintf("%sg-%08d", m.cfg.IDPrefix, m.nextID)
	s := m.newSessionLocked(id, spec, g, 1)
	m.sessions[id] = s
	m.mu.Unlock()
	m.created.Add(1)

	s.mu.Lock()
	s.persistLocked()
	s.scheduleRecomputeLocked()
	s.mu.Unlock()
	return s, nil
}

// newSessionLocked builds the in-memory session shell. Caller holds m.mu.
func (m *Manager) newSessionLocked(id string, spec jobs.Spec, g *congestmwc.Graph, generation uint64) *Session {
	class := g.Class()
	s := &Session{
		id:         id,
		mgr:        m,
		spec:       spec,
		class:      class,
		n:          g.N(),
		directed:   class == congestmwc.Directed || class == congestmwc.DirectedWeighted,
		edges:      make(map[[2]int]int64, g.M()),
		version:    1,
		generation: generation,
		created:    time.Now().UTC(),
		updated:    time.Now().UTC(),
		cleanCh:    make(chan struct{}),
	}
	// The template spec must not pin the creation-time edges: recomputes
	// rebuild the graph spec from the live edge set.
	s.spec.Graph = jobs.GraphSpec{Class: spec.Graph.Class}
	for _, e := range g.Edges() {
		s.edges[s.edgeKey(e.From, e.To)] = e.Weight
	}
	if m.cfg.Observe {
		s.stream = obs.NewStreamer(0)
	}
	return s
}

// Get returns an open session by ID.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[id]
	if s == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s, nil
}

// Delete closes a session and removes its durable state.
func (m *Manager) Delete(id string) (Status, error) {
	m.mu.Lock()
	s := m.sessions[id]
	if s == nil {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(m.sessions, id)
	m.mu.Unlock()

	s.mu.Lock()
	s.closed = true
	s.notifyLocked()
	st := s.statusLocked()
	stream := s.stream
	s.mu.Unlock()
	if stream != nil {
		stream.Publish(obs.Event{Type: obs.EventState, State: "closed"})
		stream.Close()
	}
	if m.cfg.Store != nil {
		_ = m.cfg.Store.DeleteSession(id)
	}
	m.closedN.Add(1)
	return st, nil
}

// List returns the open sessions' statuses, newest first, capped at limit
// (<= 0 selects 50).
func (m *Manager) List(limit int) []Status {
	if limit <= 0 {
		limit = 50
	}
	m.mu.Lock()
	all := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	sort.Slice(all, func(i, k int) bool { return all[i].id > all[k].id })
	if len(all) > limit {
		all = all[:limit]
	}
	out := make([]Status, len(all))
	for i, s := range all {
		out[i] = s.Status()
	}
	return out
}

// Close marks the manager closed and waits for every recompute loop to
// exit, so nothing writes to the store once Close returns. Open sessions
// stay durable on disk (the next process restores them); a recompute still
// in flight is abandoned, leaving its record stale-by-version for the next
// process to resume.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.loops.Wait()
		return
	}
	m.closed = true
	m.stopLoop()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.sessions = make(map[string]*Session)
	m.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		s.closed = true
		s.notifyLocked()
		stream := s.stream
		s.mu.Unlock()
		if stream != nil {
			stream.Close()
		}
	}
	m.loops.Wait()
}

// Restore re-opens every durable session under a bumped generation (the
// SSE epoch fence) and schedules recomputes for the ones whose cached
// result does not cover their current version — a crash mid-recompute
// resumes where it left off. Call once after NewManager, before serving.
func (m *Manager) Restore() (restored int, err error) {
	if m.cfg.Store == nil {
		return 0, nil
	}
	recs, err := m.cfg.Store.ReadSessions()
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if err := m.adopt(rec); err != nil {
			return restored, fmt.Errorf("session %s: %w", rec.ID, err)
		}
		restored++
	}
	m.restored.Add(uint64(restored))
	return restored, nil
}

// Adopt installs a handed-off session under its original ID (the cluster
// path: a router replays a dead shard's sessions onto the ring successor
// via PUT /v1/graphs/{id}). Idempotent per ID — a second PUT of a session
// this manager already owns is a no-op.
func (m *Manager) Adopt(rec *store.SessionRecord) (*Session, error) {
	m.mu.Lock()
	if s := m.sessions[rec.ID]; s != nil {
		m.mu.Unlock()
		return s, nil
	}
	m.mu.Unlock()
	if err := m.adopt(rec); err != nil {
		return nil, err
	}
	return m.Get(rec.ID)
}

// adopt rebuilds one durable record into a live session, generation
// bumped, persisted back, recompute scheduled if the record was stale.
func (m *Manager) adopt(rec *store.SessionRecord) error {
	if rec == nil || rec.ID == "" {
		return fmt.Errorf("session: record without an ID")
	}
	g, _, err := rec.Spec.Resolve(m.cfg.MaxN)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return fmt.Errorf("%w (cap %d)", ErrTooMany, m.cfg.MaxSessions)
	}
	s := m.newSessionLocked(rec.ID, rec.Spec, g, rec.Generation+1)
	s.version = rec.Version
	if rec.Result != nil {
		s.result = rec.Result
		s.resultVersion = rec.ResultVersion
	}
	if n := idSuffix(rec.ID); n > m.nextID {
		m.nextID = n
	}
	m.sessions[rec.ID] = s
	m.mu.Unlock()

	s.mu.Lock()
	s.persistLocked()
	if s.resultVersion != s.version || s.result == nil {
		s.scheduleRecomputeLocked()
	}
	s.mu.Unlock()
	return nil
}

// idSuffix extracts the numeric suffix of "[prefix-]g-%08d" IDs.
func idSuffix(id string) int64 {
	i := strings.LastIndex(id, "g-")
	if i < 0 {
		return 0
	}
	var n int64
	if _, err := fmt.Sscanf(id[i:], "g-%d", &n); err == nil {
		return n
	}
	return 0
}

// ID returns the session's ID.
func (s *Session) ID() string { return s.id }

// Epoch is the session's SSE stream epoch: its generation, bumped on
// every restore/hand-off so resuming clients fence correctly.
func (s *Session) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// Subscribe returns a live subscription to the session's event stream
// (nil without Config.Observe).
func (s *Session) Subscribe(buf int) *obs.Subscription {
	if s.stream == nil {
		return nil
	}
	return s.stream.Subscribe(buf)
}

// ResultStatus mirrors the jobs result JSON shape for session answers.
type ResultStatus struct {
	Weight int64 `json:"weight"`
	Found  bool  `json:"found"`
	Cycle  []int `json:"cycle,omitempty"`
}

// Status is a point-in-time snapshot of a session.
type Status struct {
	ID    string    `json:"id"`
	State State     `json:"state"`
	Class string    `json:"class"`
	Algo  jobs.Algo `json:"algo"`
	N     int       `json:"n"`
	M     int       `json:"m"`
	// Version counts applied mutations; ResultVersion is the version the
	// cached result answers for (equal when clean).
	Version       uint64 `json:"version"`
	ResultVersion uint64 `json:"resultVersion,omitempty"`
	// Generation counts owning processes (restarts/hand-offs); it is the
	// SSE stream epoch.
	Generation uint64        `json:"generation"`
	Result     *ResultStatus `json:"result,omitempty"`
	Error      string        `json:"error,omitempty"`
	Created    time.Time     `json:"created"`
	Updated    time.Time     `json:"updated"`
}

// Status snapshots the session.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *Session) statusLocked() Status {
	st := Status{
		ID:            s.id,
		State:         s.stateLocked(),
		Class:         s.spec.Graph.Class,
		Algo:          s.spec.Algo,
		N:             s.n,
		M:             len(s.edges),
		Version:       s.version,
		ResultVersion: s.resultVersion,
		Generation:    s.generation,
		Error:         s.failedMsg,
		Created:       s.created,
		Updated:       s.updated,
	}
	if s.result != nil {
		st.Result = &ResultStatus{Weight: s.result.Weight, Found: s.result.Found, Cycle: s.result.Cycle}
	}
	return st
}

func (s *Session) stateLocked() State {
	switch {
	case s.computing:
		return StateComputing
	case s.failedMsg != "":
		return StateFailed
	default:
		return StateClean
	}
}

// PatchResult reports how a PATCH batch was absorbed.
type PatchResult struct {
	Status Status `json:"status"`
	// WitnessKept: every op was provably answer-preserving — the cached
	// result stands and no simulation was scheduled.
	WitnessKept bool `json:"witnessKept"`
}

// Patch applies a batch of ops atomically: all ops validate against the
// running edge set (including a connectivity check of the final graph)
// before any state changes, so a rejected batch leaves the session
// untouched. If every op is answer-preserving under the witness rules the
// cached result is carried forward at the new version with zero
// simulation; otherwise a recompute of the final edge set is scheduled.
func (s *Session) Patch(ops []Op) (PatchResult, error) {
	if len(ops) == 0 {
		return PatchResult{}, fmt.Errorf("session: empty op batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return PatchResult{}, fmt.Errorf("%w: %s", ErrNotFound, s.id)
	}

	// Dry-run: apply to a copy, tracking witness preservation per op.
	next := make(map[[2]int]int64, len(s.edges)+len(ops))
	for k, v := range s.edges {
		next[k] = v
	}
	weighted := s.class == congestmwc.UndirectedWeighted || s.class == congestmwc.DirectedWeighted
	kept := true
	for i, op := range ops {
		if op.From < 0 || op.From >= s.n || op.To < 0 || op.To >= s.n {
			return PatchResult{}, fmt.Errorf("session: op %d: endpoint out of range [0,%d)", i, s.n)
		}
		if op.From == op.To {
			return PatchResult{}, fmt.Errorf("session: op %d: self-loop (%d,%d)", i, op.From, op.To)
		}
		key := s.edgeKey(op.From, op.To)
		w := op.Weight
		if !weighted {
			w = 1
		}
		cur, exists := next[key]
		switch op.Op {
		case OpInsert:
			if exists {
				return PatchResult{}, fmt.Errorf("session: op %d: edge (%d,%d) already present (use reweight)", i, op.From, op.To)
			}
			if w < 0 {
				return PatchResult{}, fmt.Errorf("session: op %d: negative weight %d", i, w)
			}
			next[key] = w
			kept = kept && s.insertKeepsWitnessLocked(w)
		case OpDelete:
			if !exists {
				return PatchResult{}, fmt.Errorf("session: op %d: edge (%d,%d) not present", i, op.From, op.To)
			}
			delete(next, key)
			kept = kept && s.deleteKeepsWitnessLocked(op.From, op.To)
		case OpReweight:
			if !exists {
				return PatchResult{}, fmt.Errorf("session: op %d: edge (%d,%d) not present", i, op.From, op.To)
			}
			if !weighted {
				return PatchResult{}, fmt.Errorf("session: op %d: reweight on unweighted class %q", i, s.spec.Graph.Class)
			}
			if w < 0 {
				return PatchResult{}, fmt.Errorf("session: op %d: negative weight %d", i, w)
			}
			next[key] = w
			kept = kept && s.reweightKeepsWitnessLocked(op.From, op.To, cur, w)
		default:
			return PatchResult{}, fmt.Errorf("session: op %d: unknown op %q (want %s | %s | %s)",
				i, op.Op, OpInsert, OpDelete, OpReweight)
		}
	}
	// The final graph must still be a valid instance — in particular the
	// communication network must stay connected, or no algorithm can run
	// on it.
	g, err := congestmwc.NewGraph(s.n, edgeList(next, s.directed), s.class)
	if err != nil {
		return PatchResult{}, fmt.Errorf("session: batch rejected: %w", err)
	}
	if !g.Connected() {
		return PatchResult{}, fmt.Errorf("session: batch rejected: it disconnects the communication network")
	}

	// Commit.
	s.edges = next
	s.version++
	s.updated = time.Now().UTC()
	s.mgr.patches.Add(1)
	s.mgr.ops.Add(uint64(len(ops)))
	// The witness rules only carry a result that was valid for the edge
	// set the batch applied to.
	kept = kept && s.result != nil && s.resultVersion == s.version-1 && s.failedMsg == ""
	if kept {
		s.resultVersion = s.version
		s.mgr.witnessKept.Add(1)
	} else {
		s.mgr.invalidations.Add(1)
		s.scheduleRecomputeLocked()
	}
	s.persistLocked()
	return PatchResult{Status: s.statusLocked(), WitnessKept: kept}, nil
}

// insertKeepsWitnessLocked: a new edge of weight w preserves the answer
// iff a cycle is cached and w is at least its weight.
func (s *Session) insertKeepsWitnessLocked(w int64) bool {
	return s.result != nil && s.result.Found && w >= s.result.Weight
}

// deleteKeepsWitnessLocked: deleting (u,v) preserves the answer iff no
// cycle is cached (deletion cannot create one) or the witness avoids the
// edge.
func (s *Session) deleteKeepsWitnessLocked(u, v int) bool {
	if s.result == nil {
		return false
	}
	if !s.result.Found {
		return true
	}
	return len(s.result.Cycle) > 0 && !s.onWitnessLocked(u, v)
}

// reweightKeepsWitnessLocked: reweighting preserves the answer iff no
// cycle is cached, the weight is unchanged, or it is a reweight-up off
// the witness.
func (s *Session) reweightKeepsWitnessLocked(u, v int, old, w int64) bool {
	if s.result == nil {
		return false
	}
	if !s.result.Found || w == old {
		return true
	}
	return w >= old && len(s.result.Cycle) > 0 && !s.onWitnessLocked(u, v)
}

// onWitnessLocked reports whether (u,v) is an edge of the cached witness
// cycle (either orientation on undirected classes).
func (s *Session) onWitnessLocked(u, v int) bool {
	cyc := s.result.Cycle
	for i := range cyc {
		a, b := cyc[i], cyc[(i+1)%len(cyc)]
		if (a == u && b == v) || (!s.directed && a == v && b == u) {
			return true
		}
	}
	return false
}

// edgeList renders an edge map as a deterministic (sorted) edge slice.
func edgeList(edges map[[2]int]int64, directed bool) []congestmwc.Edge {
	keys := make([][2]int, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, k int) bool {
		if keys[i][0] != keys[k][0] {
			return keys[i][0] < keys[k][0]
		}
		return keys[i][1] < keys[k][1]
	})
	out := make([]congestmwc.Edge, len(keys))
	for i, k := range keys {
		out[i] = congestmwc.Edge{From: k[0], To: k[1], Weight: edges[k]}
	}
	return out
}

// jobEdges renders the live edge set as a job graph spec's inline edges.
func jobEdges(edges []congestmwc.Edge) []jobs.Edge {
	out := make([]jobs.Edge, len(edges))
	for i, e := range edges {
		out[i] = jobs.Edge{From: e.From, To: e.To, Weight: e.Weight}
	}
	return out
}

// specLocked builds the recompute job spec for the current edge set.
func (s *Session) specLocked() jobs.Spec {
	spec := s.spec
	spec.Graph = jobs.GraphSpec{
		Class: s.spec.Graph.Class,
		N:     s.n,
		Edges: jobEdges(edgeList(s.edges, s.directed)),
	}
	return spec
}

// record renders the session's durable form. Caller holds s.mu.
func (s *Session) recordLocked() *store.SessionRecord {
	return &store.SessionRecord{
		ID:            s.id,
		Spec:          s.specLocked(),
		Version:       s.version,
		Generation:    s.generation,
		Result:        s.result,
		ResultVersion: s.resultVersion,
		Updated:       s.updated,
	}
}

// persistLocked writes the session through the store, if any. Persistence
// errors are remembered as a failed state rather than dropped: a session
// whose durable form is stale must not pretend to be healthy.
func (s *Session) persistLocked() {
	if s.mgr.cfg.Store == nil {
		return
	}
	if err := s.mgr.cfg.Store.WriteSession(s.recordLocked()); err != nil {
		s.failedMsg = err.Error()
	}
}

// notifyLocked wakes every long-poll waiter. Caller holds s.mu.
func (s *Session) notifyLocked() {
	close(s.cleanCh)
	s.cleanCh = make(chan struct{})
}

// publishState emits a session state transition on the SSE hub.
func (s *Session) publishState(st State, errMsg string) {
	if s.stream == nil {
		return
	}
	s.stream.Publish(obs.Event{Type: obs.EventState, State: string(st), Error: errMsg})
}

// scheduleRecomputeLocked starts the recompute loop if one is not already
// running. Caller holds s.mu.
func (s *Session) scheduleRecomputeLocked() {
	if s.computing || s.closed {
		return
	}
	s.computing = true
	s.failedMsg = ""
	s.mgr.loops.Add(1)
	go s.recomputeLoop()
	s.publishState(StateComputing, "")
}

// recomputeLoop submits the current edge set through the job service and
// folds the answer back, repeating while PATCHes race ahead of it. It
// exits clean (result covers the latest version), failed (admission or
// the job itself errored), or when the session or the manager closes.
func (s *Session) recomputeLoop() {
	defer s.mgr.loops.Done()
	for {
		s.mu.Lock()
		stopped := s.closed || s.mgr.stop.Err() != nil
		if stopped || (s.result != nil && s.resultVersion == s.version) {
			s.computing = false
			if !stopped {
				s.publishState(StateClean, "")
			}
			s.notifyLocked()
			s.mu.Unlock()
			return
		}
		version := s.version
		spec := s.specLocked()
		s.mu.Unlock()

		s.mgr.recomputes.Add(1)
		j, err := s.mgr.cfg.Jobs.Submit(spec)
		if errors.Is(err, jobs.ErrQueueFull) {
			// Backpressure: retry, the session owes an answer.
			select {
			case <-time.After(50 * time.Millisecond):
			case <-s.mgr.stop.Done():
			}
			continue
		}
		if err != nil {
			s.fail(fmt.Sprintf("recompute admission: %v", err))
			return
		}
		st, err := j.Wait(s.mgr.stop)
		switch {
		case err != nil:
			continue // the manager closed; the loop head exits
		case st.State == jobs.StateDone && st.Result != nil:
			s.mu.Lock()
			if version > s.resultVersion && !s.closed {
				s.result = &congestmwc.Result{
					Weight:   st.Result.Weight,
					Found:    st.Result.Found,
					Rounds:   st.Result.Rounds,
					Messages: st.Result.Messages,
					Words:    st.Result.Words,
					Cycle:    st.Result.Cycle,
				}
				s.resultVersion = version
				s.updated = time.Now().UTC()
				s.persistLocked()
			}
			s.mu.Unlock()
		case st.State == jobs.StateCancelled && s.draining():
			// Shutdown cancelled the recompute; the durable session record
			// is stale-by-version and the next process resumes it.
			s.fail("recompute interrupted by shutdown")
			return
		default:
			s.fail(fmt.Sprintf("recompute job %s ended %s: %s", st.ID, st.State, st.Error))
			return
		}
	}
}

func (s *Session) draining() bool {
	select {
	case <-s.mgr.cfg.Jobs.Draining():
		return true
	default:
		return false
	}
}

// fail parks the session in the failed state.
func (s *Session) fail(msg string) {
	s.mu.Lock()
	s.computing = false
	s.failedMsg = msg
	s.notifyLocked()
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		s.publishState(StateFailed, msg)
	}
}

// Query returns the session's current answer. With wait > 0 and a
// recompute in flight it long-polls until the session is clean (or
// failed), the wait elapses, or ctx is done; the returned Status is
// current either way. cached reports a zero-simulation answer: the session
// was already clean when the query arrived.
func (s *Session) Query(ctx context.Context, wait time.Duration) (st Status, cached bool) {
	s.mgr.queries.Add(1)
	s.mu.Lock()
	if s.stateLocked() == StateClean && s.result != nil {
		st = s.statusLocked()
		s.mu.Unlock()
		s.mgr.cachedAnswers.Add(1)
		return st, true
	}
	if wait <= 0 {
		st = s.statusLocked()
		s.mu.Unlock()
		return st, false
	}
	deadline := time.After(wait)
	for {
		ch := s.cleanCh
		s.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return s.Status(), false
		case <-ctx.Done():
			return s.Status(), false
		}
		s.mu.Lock()
		if s.closed || s.stateLocked() != StateComputing {
			st = s.statusLocked()
			s.mu.Unlock()
			return st, false
		}
	}
}

// Metrics is a snapshot of the session subsystem's counters.
type Metrics struct {
	Open          int
	Created       uint64
	Closed        uint64
	Restored      uint64
	Patches       uint64
	Ops           uint64
	WitnessKept   uint64
	Invalidations uint64
	Recomputes    uint64
	Queries       uint64
	CachedAnswers uint64
}

// Metrics snapshots the manager.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	open := len(m.sessions)
	m.mu.Unlock()
	return Metrics{
		Open:          open,
		Created:       m.created.Load(),
		Closed:        m.closedN.Load(),
		Restored:      m.restored.Load(),
		Patches:       m.patches.Load(),
		Ops:           m.ops.Load(),
		WitnessKept:   m.witnessKept.Load(),
		Invalidations: m.invalidations.Load(),
		Recomputes:    m.recomputes.Load(),
		Queries:       m.queries.Load(),
		CachedAnswers: m.cachedAnswers.Load(),
	}
}
