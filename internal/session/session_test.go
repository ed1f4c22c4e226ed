package session

import (
	"context"
	"sync"
	"testing"
	"time"

	"congestmwc"
	"congestmwc/internal/jobs"
	"congestmwc/internal/store"
)

// testSpec is a weighted undirected instance with a known witness: the
// unit triangle 0-1-2 (MWC = 3) hanging off a heavy tail 2-3-4-5-0 that
// keeps every vertex connected and forms one heavier cycle.
func testSpec() jobs.Spec {
	return jobs.Spec{
		Graph: jobs.GraphSpec{Class: "uw", N: 6, Edges: []jobs.Edge{
			{From: 0, To: 1, Weight: 1},
			{From: 1, To: 2, Weight: 1},
			{From: 2, To: 0, Weight: 1},
			{From: 2, To: 3, Weight: 10},
			{From: 3, To: 4, Weight: 10},
			{From: 4, To: 5, Weight: 10},
			{From: 5, To: 0, Weight: 10},
		}},
		Algo: jobs.AlgoExact,
	}
}

func newTestManager(t *testing.T, st SessionStore) (*Manager, *jobs.Service) {
	t.Helper()
	svc := jobs.New(jobs.Config{Workers: 2, QueueCap: 64, DefaultTimeout: time.Minute})
	m, err := NewManager(Config{Jobs: svc, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = svc.Close(ctx)
	})
	return m, svc
}

// waitClean long-polls the session until its result covers the current
// version.
func waitClean(t *testing.T, s *Session) Status {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		st, _ := s.Query(context.Background(), 2*time.Second)
		if st.State == StateClean && st.Result != nil {
			return st
		}
		if st.State == StateFailed {
			t.Fatalf("session failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never became clean: %+v", st)
		}
	}
}

// TestWitnessScopedInvalidation walks every invalidation rule and checks
// both the decision (witnessKept) and the answer against the sequential
// reference after each step.
func TestWitnessScopedInvalidation(t *testing.T) {
	m, _ := newTestManager(t, nil)
	s, err := m.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitClean(t, s)
	if !st.Result.Found || st.Result.Weight != 3 {
		t.Fatalf("initial MWC = %+v, want weight 3", st.Result)
	}
	if len(st.Result.Cycle) == 0 {
		t.Fatal("exact result carries no witness cycle; the witness rules need one")
	}

	patch := func(op Op, wantKept bool) PatchResult {
		t.Helper()
		before := m.Metrics().Recomputes
		res, err := s.Patch([]Op{op})
		if err != nil {
			t.Fatalf("Patch(%+v): %v", op, err)
		}
		if res.WitnessKept != wantKept {
			t.Fatalf("Patch(%+v): witnessKept = %v, want %v", op, res.WitnessKept, wantKept)
		}
		st := waitClean(t, s)
		// The live answer must always equal a from-scratch solve.
		g, _, err := jobs.Spec{Graph: jobs.GraphSpec{Class: "uw", N: s.n, Edges: jobEdges(edgeList(s.edges, s.directed))}, Algo: jobs.AlgoExact}.Resolve(0)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		want, err := congestmwc.ReferenceMWC(g)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if st.Result.Weight != want {
			t.Fatalf("after Patch(%+v): session answers %d, reference says %d", op, st.Result.Weight, want)
		}
		if wantKept && m.Metrics().Recomputes != before {
			t.Fatalf("Patch(%+v) kept the witness but still recomputed", op)
		}
		if !wantKept && m.Metrics().Recomputes == before {
			t.Fatalf("Patch(%+v) invalidated but never recomputed", op)
		}
		return res
	}

	// Inserts: at least as heavy as the cached MWC is absorbed; lighter
	// invalidates (it may close a better cycle).
	patch(Op{Op: OpInsert, From: 1, To: 4, Weight: 50}, true)
	patch(Op{Op: OpInsert, From: 1, To: 3, Weight: 1}, false) // new cycle 1-2-3: weight 12; MWC stays 3

	// Reweights: up off-witness absorbed, down invalidates, touching the
	// witness invalidates.
	patch(Op{Op: OpReweight, From: 3, To: 4, Weight: 20}, true)
	patch(Op{Op: OpReweight, From: 3, To: 4, Weight: 5}, false)
	patch(Op{Op: OpReweight, From: 0, To: 1, Weight: 2}, false) // witness edge: MWC becomes 4 via 0-1-2

	// Deletes: off-witness absorbed, on-witness invalidates.
	patch(Op{Op: OpDelete, From: 1, To: 4}, true)
	patch(Op{Op: OpDelete, From: 0, To: 1}, false) // destroys the triangle

	mm := m.Metrics()
	if mm.WitnessKept != 3 || mm.Invalidations != 4 {
		t.Errorf("metrics: witnessKept=%d invalidations=%d, want 3/4", mm.WitnessKept, mm.Invalidations)
	}
	if mm.Patches != 7 || mm.Ops != 7 {
		t.Errorf("metrics: patches=%d ops=%d, want 7/7", mm.Patches, mm.Ops)
	}
}

// TestPatchValidation: a rejected batch leaves the session untouched.
func TestPatchValidation(t *testing.T) {
	m, _ := newTestManager(t, nil)
	s, err := m.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitClean(t, s)
	before := s.Status()

	bad := [][]Op{
		{{Op: OpInsert, From: 0, To: 1, Weight: 5}},                      // duplicate edge
		{{Op: OpInsert, From: 0, To: 0, Weight: 5}},                      // self-loop
		{{Op: OpInsert, From: 0, To: 99, Weight: 5}},                     // out of range
		{{Op: OpInsert, From: 0, To: 3, Weight: -1}},                     // negative weight
		{{Op: OpDelete, From: 0, To: 4}},                                 // absent edge
		{{Op: OpReweight, From: 0, To: 4, Weight: 2}},                    // absent edge
		{{Op: "swap", From: 0, To: 1}},                                   // unknown op
		{},                                                               // empty batch
		{{Op: OpDelete, From: 2, To: 3}, {Op: OpDelete, From: 5, To: 0}}, // disconnects 3,4,5
		{{Op: OpDelete, From: 0, To: 1}, {Op: OpDelete, From: 0, To: 1}}, // double delete in one batch
	}
	for _, ops := range bad {
		if _, err := s.Patch(ops); err == nil {
			t.Errorf("Patch(%+v) accepted, want rejection", ops)
		}
	}
	after := s.Status()
	if after.Version != before.Version || after.M != before.M {
		t.Fatalf("rejected batches mutated the session: %+v -> %+v", before, after)
	}
	if got := m.Metrics().Patches; got != 0 {
		t.Errorf("rejected batches counted as patches: %d", got)
	}

	// A batch that deletes then re-inserts the same edge is coherent and
	// must be accepted.
	if _, err := s.Patch([]Op{
		{Op: OpDelete, From: 0, To: 1},
		{Op: OpInsert, From: 0, To: 1, Weight: 1},
	}); err != nil {
		t.Fatalf("delete+reinsert batch rejected: %v", err)
	}
}

// TestReweightUnweightedClassRejected: reweight is meaningless on
// unweighted classes and must be rejected, while insert/delete still work
// (weights forced to 1).
func TestReweightUnweightedClassRejected(t *testing.T) {
	m, _ := newTestManager(t, nil)
	spec := jobs.Spec{
		Graph: jobs.GraphSpec{Class: "ud", N: 4, Edges: []jobs.Edge{
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0},
		}},
		Algo: jobs.AlgoExact,
	}
	s, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitClean(t, s)
	if _, err := s.Patch([]Op{{Op: OpReweight, From: 0, To: 1, Weight: 3}}); err == nil {
		t.Error("reweight accepted on an unweighted class")
	}
	if _, err := s.Patch([]Op{{Op: OpInsert, From: 0, To: 2, Weight: 99}}); err != nil {
		t.Errorf("insert on unweighted class: %v", err)
	}
	st := waitClean(t, s)
	if st.Result.Weight != 3 {
		t.Errorf("girth after chord = %d, want 3", st.Result.Weight)
	}
}

// TestSessionRestore: sessions survive a manager restart — result, version
// and edges intact, generation bumped — and a session whose durable record
// is stale (crash mid-recompute) resumes its recompute.
func TestSessionRestore(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	m1, _ := newTestManager(t, st1)
	s, err := m1.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitClean(t, s)
	if _, err := s.Patch([]Op{{Op: OpInsert, From: 1, To: 4, Weight: 50}}); err != nil {
		t.Fatal(err)
	}
	before := waitClean(t, s)
	m1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-recompute for a second session: write a record
	// whose result lags its version.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stale := &store.SessionRecord{
		ID:         "g-00000099",
		Spec:       testSpec(),
		Version:    5,
		Generation: 3,
		Updated:    time.Now().UTC(),
	}
	if err := st2.WriteSession(stale); err != nil {
		t.Fatal(err)
	}

	m2, _ := newTestManager(t, st2)
	restored, err := m2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d sessions, want 2", restored)
	}
	t.Cleanup(func() { _ = st2.Close() })

	s2, err := m2.Get(before.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.Status()
	if got.Version != before.Version || got.M != before.M {
		t.Errorf("restored session: version=%d m=%d, want %d/%d", got.Version, got.M, before.Version, before.M)
	}
	if got.Generation != before.Generation+1 {
		t.Errorf("restored generation = %d, want %d", got.Generation, before.Generation+1)
	}
	if got.State != StateClean || got.Result == nil || got.Result.Weight != before.Result.Weight {
		t.Errorf("restored result %+v, want the durable %+v with no recompute", got.Result, before.Result)
	}

	// The stale session recomputes to catch its version up.
	s3, err := m2.Get("g-00000099")
	if err != nil {
		t.Fatal(err)
	}
	st3 := waitClean(t, s3)
	if st3.ResultVersion != 5 || st3.Result.Weight != 3 {
		t.Errorf("stale session after restore: %+v, want resultVersion 5 weight 3", st3)
	}
	if st3.Generation != 4 {
		t.Errorf("stale session generation = %d, want 4", st3.Generation)
	}

	// New sessions must not collide with restored IDs.
	s4, err := m2.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if s4.ID() <= "g-00000099" {
		t.Errorf("new session ID %s not after the restored maximum", s4.ID())
	}
}

// TestAdoptIdempotent: PUT-style adoption under an existing ID is a no-op.
func TestAdoptIdempotent(t *testing.T) {
	m, _ := newTestManager(t, nil)
	rec := &store.SessionRecord{
		ID:         "dead-g-00000007",
		Spec:       testSpec(),
		Version:    2,
		Generation: 1,
		Updated:    time.Now().UTC(),
	}
	s1, err := m.Adopt(rec)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch() != 2 {
		t.Errorf("adopted generation = %d, want 2", s1.Epoch())
	}
	s2, err := m.Adopt(rec)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("second Adopt built a new session")
	}
	waitClean(t, s1)
}

// sealedStore is an in-memory SessionStore that reports every write made
// after seal() on late.
type sealedStore struct {
	mu     sync.Mutex
	sealed bool
	late   chan string
}

func (st *sealedStore) WriteSession(rec *store.SessionRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sealed {
		select {
		case st.late <- rec.ID:
		default:
		}
	}
	return nil
}

func (st *sealedStore) DeleteSession(string) error                    { return nil }
func (st *sealedStore) ReadSessions() ([]*store.SessionRecord, error) { return nil, nil }

func (st *sealedStore) seal() {
	st.mu.Lock()
	st.sealed = true
	st.mu.Unlock()
}

// TestCloseWaitsForRecomputeWriteBack: a recompute still in flight when
// Close is called must not write its result back afterwards. The single
// worker is held by a slow job, so the session's recompute is queued when
// Close runs and completes only once the slow job expires.
func TestCloseWaitsForRecomputeWriteBack(t *testing.T) {
	svc := jobs.New(jobs.Config{Workers: 1, QueueCap: 8, DefaultTimeout: time.Minute})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = svc.Close(ctx)
	})
	blocker, err := svc.Submit(jobs.Spec{
		Graph:     jobs.GraphSpec{Class: "ud", Gen: &jobs.GenSpec{Kind: "ring", N: 4096}},
		Algo:      jobs.AlgoExact,
		TimeoutMS: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	for blocker.Status().State == jobs.StateQueued {
		time.Sleep(time.Millisecond)
	}
	st := &sealedStore{late: make(chan string, 1)}
	m, err := NewManager(Config{Jobs: svc, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Status().State; got != StateComputing {
		t.Fatalf("session state %s before Close, want %s", got, StateComputing)
	}
	for len(svc.List(10)) < 2 { // the recompute is queued behind the blocker
		time.Sleep(time.Millisecond)
	}
	m.Close()
	st.seal()
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-st.late:
		t.Fatalf("session %s written after Close returned", id)
	case <-time.After(time.Second):
	}
}
