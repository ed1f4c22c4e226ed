package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// exactRingSpec is an exact-MWC job on a weighted ring: at n >= 128 one run
// takes tens of milliseconds and the cost grows superlinearly, which gives
// the tests a controllable amount of real work per job.
func exactRingSpec(n int, seed int64) Spec {
	return Spec{
		Graph: GraphSpec{Class: "uw", Gen: &GenSpec{Kind: "ring", N: n, MaxW: 7}},
		Algo:  AlgoExact,
		Opts:  OptionsSpec{Seed: seed},
	}
}

// waitState polls the job until it reports the wanted state.
func waitState(t *testing.T, j *Job, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if st := j.Status(); st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach %s within %v (state %s)", j.ID(), want, timeout, j.Status().State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitTerminal waits for the job to finish and returns its final status.
func waitTerminal(t *testing.T, j *Job, timeout time.Duration) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	st, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s did not reach a terminal state within %v (state %s)", j.ID(), timeout, st.State)
	}
	return st
}

func closeService(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestLoadBackpressure is the acceptance load test: >= 200 concurrent
// submissions against 4 workers and a queue cap of 32. The excess must be
// rejected with the distinct backpressure error, and every accepted job must
// reach a terminal state.
func TestLoadBackpressure(t *testing.T) {
	const submissions = 220
	// Hold the workers until every submission has been answered: without the
	// gate, fast machines drain n=128 jobs quicker than 220 goroutines can
	// submit them and the queue never overflows. With it the overflow is
	// deterministic — at most 4 in-flight + 32 queued jobs are accepted.
	gate := make(chan struct{})
	testBeforeRun = func() { <-gate }
	defer func() { testBeforeRun = nil }()
	s := New(Config{Workers: 4, QueueCap: 32, CacheEntries: -1})

	var (
		mu       sync.Mutex
		accepted []*Job
		rejected int
	)
	var wg sync.WaitGroup
	for i := 0; i < submissions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds give every job a distinct cache key, so no
			// submission can bypass the queue via the result cache.
			j, err := s.Submit(exactRingSpec(128, int64(i)))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if !errors.Is(err, ErrQueueFull) {
					t.Errorf("submission %d failed with %v, want ErrQueueFull", i, err)
				}
				rejected++
				return
			}
			accepted = append(accepted, j)
		}(i)
	}
	wg.Wait()

	if rejected == 0 {
		t.Fatalf("no submission was rejected: %d jobs against %d workers / queue cap %d should overflow",
			submissions, 4, 32)
	}
	if len(accepted)+rejected != submissions {
		t.Fatalf("accounting: %d accepted + %d rejected != %d submitted", len(accepted), rejected, submissions)
	}
	// Backpressure must not reject everything: the queue plus in-flight
	// slots were free at the start.
	if len(accepted) < 32 {
		t.Errorf("only %d submissions accepted, want at least the queue capacity (32)", len(accepted))
	}
	close(gate) // release the workers; accepted jobs must now finish
	for _, j := range accepted {
		st := waitTerminal(t, j, 2*time.Minute)
		if st.State != StateDone {
			t.Errorf("job %s ended in %s (%s), want done", st.ID, st.State, st.Error)
		}
	}

	m := s.Metrics()
	if got, want := m.Submitted, uint64(len(accepted)); got != want {
		t.Errorf("Metrics.Submitted = %d, want %d", got, want)
	}
	if got, want := m.Rejected, uint64(rejected); got != want {
		t.Errorf("Metrics.Rejected = %d, want %d", got, want)
	}
	if got, want := m.Done, uint64(len(accepted)); got != want {
		t.Errorf("Metrics.Done = %d, want %d", got, want)
	}
	if m.RoundsSimulated == 0 || m.MessagesSimulated == 0 {
		t.Errorf("aggregate simulation counters empty: rounds %d messages %d",
			m.RoundsSimulated, m.MessagesSimulated)
	}
	closeService(t, s)
}

func TestCacheHitOnResubmit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeService(t, s)

	spec := exactRingSpec(64, 1)
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st1 := waitTerminal(t, first, time.Minute)
	if st1.State != StateDone {
		t.Fatalf("first run ended in %s (%s)", st1.State, st1.Error)
	}
	if st1.CacheHit {
		t.Error("first submission reported a cache hit")
	}

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st2 := second.Status()
	if st2.State != StateDone {
		t.Fatalf("resubmission not answered from cache: state %s", st2.State)
	}
	if !st2.CacheHit {
		t.Error("resubmission did not report a cache hit")
	}
	if st2.Result == nil || st1.Result == nil || st2.Result.Weight != st1.Result.Weight {
		t.Errorf("cached result differs: %+v vs %+v", st2.Result, st1.Result)
	}
	if first.Key() != second.Key() {
		t.Errorf("identical specs got different keys: %s vs %s", first.Key(), second.Key())
	}

	m := s.Metrics()
	if m.CacheHits != 1 {
		t.Errorf("Metrics.CacheHits = %d, want 1", m.CacheHits)
	}
	if m.CacheMisses != 1 {
		t.Errorf("Metrics.CacheMisses = %d, want 1", m.CacheMisses)
	}
	if m.CacheEntries != 1 {
		t.Errorf("Metrics.CacheEntries = %d, want 1", m.CacheEntries)
	}
	if m.CacheHitRatio != 0.5 {
		t.Errorf("Metrics.CacheHitRatio = %v, want 0.5", m.CacheHitRatio)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8})
	defer closeService(t, s)

	// Occupy the single worker so the second job stays queued.
	blocker, err := s.Submit(exactRingSpec(2048, 1))
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitState(t, blocker, StateRunning, 30*time.Second)

	queued, err := s.Submit(exactRingSpec(2048, 2))
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	if st := queued.Status(); st.State != StateQueued {
		t.Fatalf("second job is %s, want queued", st.State)
	}
	st, err := s.Cancel(queued.ID())
	if err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if st.State != StateCancelled {
		t.Errorf("queued job is %s after Cancel, want cancelled immediately", st.State)
	}
	if st.Result != nil {
		t.Errorf("queued job has a result after Cancel: %+v", st.Result)
	}

	if _, err := s.Cancel(blocker.ID()); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
	if got := waitTerminal(t, blocker, 30*time.Second); got.State != StateCancelled {
		t.Errorf("blocker ended in %s, want cancelled", got.State)
	}

	if _, err := s.Cancel("j-does-not-exist"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel(unknown) = %v, want ErrNotFound", err)
	}
}

// TestCancelRunningJob checks the acceptance property that cancelling a
// running job takes effect within one executed round: the simulation stops
// with partial progress far short of a full run instead of running to
// completion.
func TestCancelRunningJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeService(t, s)

	// A full exact run on this instance takes >= 1.5 s and thousands of
	// rounds; the cancel lands within the first few hundred milliseconds.
	j, err := s.Submit(exactRingSpec(2048, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, j, StateRunning, 30*time.Second)
	// Let it get past network setup and execute some rounds first; under
	// -race, setup alone can take a few hundred milliseconds.
	time.Sleep(500 * time.Millisecond)
	if _, err := s.Cancel(j.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	cancelled := time.Now()
	st := waitTerminal(t, j, 30*time.Second)
	stopLag := time.Since(cancelled)

	if st.State != StateCancelled {
		t.Fatalf("job ended in %s (%s), want cancelled", st.State, st.Error)
	}
	if st.Result == nil {
		t.Fatal("cancelled job carries no partial progress")
	}
	if st.Result.Found {
		t.Error("cancelled job claims a complete answer")
	}
	if st.Result.Rounds <= 0 {
		t.Errorf("cancelled job reports %d executed rounds, want > 0", st.Result.Rounds)
	}
	// A full run on this instance executes 7170 rounds; a cancelled one
	// must have stopped short of that.
	if st.Result.Rounds >= 7170 {
		t.Errorf("cancelled job executed %d rounds; cancellation did not stop it before completion", st.Result.Rounds)
	}
	// Generous bound: one round here is sub-millisecond, so even a heavily
	// loaded test runner stops well within a second.
	if stopLag > 5*time.Second {
		t.Errorf("job took %v to stop after Cancel", stopLag)
	}
	if m := s.Metrics(); m.Cancelled != 1 {
		t.Errorf("Metrics.Cancelled = %d, want 1", m.Cancelled)
	}
}

func TestJobTimeoutExpires(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeService(t, s)

	// A full run on this instance takes >= 1.5 s; a 500 ms budget expires
	// it mid-run while still leaving room (even under -race) for network
	// setup plus some executed rounds of partial progress.
	spec := exactRingSpec(2048, 1)
	spec.TimeoutMS = 500
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != StateExpired {
		t.Fatalf("job ended in %s (%s), want expired", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Rounds <= 0 {
		t.Errorf("expired job carries no partial progress: %+v", st.Result)
	}
	if m := s.Metrics(); m.Expired != 1 {
		t.Errorf("Metrics.Expired = %d, want 1", m.Expired)
	}
}

// TestGracefulDrain checks the shutdown contract: running jobs finish,
// queued jobs are cancelled, and new submissions are refused.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 8})

	jobs := make([]*Job, 0, 6)
	for i := 0; i < 6; i++ {
		j, err := s.Submit(exactRingSpec(256, int64(i)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	// Make sure the drain really overlaps running work.
	waitState(t, jobs[0], StateRunning, 30*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var done, cancelled int
	for _, j := range jobs {
		st := j.Status()
		if !st.State.Terminal() {
			t.Errorf("job %s is %s after Close, want terminal", st.ID, st.State)
		}
		switch st.State {
		case StateDone:
			done++
		case StateCancelled:
			cancelled++
		default:
			t.Errorf("job %s ended in %s (%s) during drain", st.ID, st.State, st.Error)
		}
	}
	// The job observed running must have been allowed to finish.
	if st := jobs[0].Status(); st.State != StateDone {
		t.Errorf("running job %s was not drained to completion: %s", st.ID, st.State)
	}
	if done == 0 {
		t.Error("drain completed no running jobs")
	}

	if _, err := s.Submit(exactRingSpec(64, 99)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := s.Close(context.Background()); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestCloseAbortsOnExpiredContext checks the hard-stop path: when the drain
// deadline passes, running simulations are aborted and Close still returns
// only after every worker has exited.
func TestCloseAbortsOnExpiredContext(t *testing.T) {
	s := New(Config{Workers: 1})
	j, err := s.Submit(exactRingSpec(4096, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, j, StateRunning, 30*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close with expiring context = %v, want DeadlineExceeded", err)
	}
	// Close only returns once the workers exit, so the job is terminal now.
	st := j.Status()
	if st.State != StateCancelled {
		t.Errorf("job is %s after aborted drain, want cancelled", st.State)
	}
	// The abort may land during network setup, before any round executed,
	// so only the presence of the partial-progress record is guaranteed
	// (TestCancelRunningJob covers nonzero executed rounds).
	if st.Result == nil {
		t.Error("aborted job carries no partial progress record")
	} else if st.Result.Found {
		t.Error("aborted job claims a complete answer")
	}
}

func TestObserveAttachesSummaries(t *testing.T) {
	s := New(Config{Workers: 1, Observe: true})
	defer closeService(t, s)

	j, err := s.Submit(exactRingSpec(64, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, j, time.Minute)
	if st.State != StateDone {
		t.Fatalf("job ended in %s (%s)", st.State, st.Error)
	}
	if st.Obs == nil {
		t.Fatal("Observe: true but job status has no obs summary")
	}
	if st.Result != nil && st.Obs.Rounds != st.Result.Rounds {
		t.Errorf("obs summary rounds %d != result rounds %d", st.Obs.Rounds, st.Result.Rounds)
	}
	if m := s.Metrics(); m.PeakLinkWords <= 0 {
		t.Errorf("Metrics.PeakLinkWords = %d, want > 0 with Observe on", m.PeakLinkWords)
	}
}

// TestMetricsBookJobBeforeWait pins that a job's simulated totals are
// booked before the job turns terminal: with jobs submitted one at a time,
// Metrics read right after each Wait equal the running sums.
func TestMetricsBookJobBeforeWait(t *testing.T) {
	s := New(Config{Workers: 1, Observe: true})
	defer closeService(t, s)

	var rounds, messages uint64
	for i := 0; i < 6; i++ {
		j, err := s.Submit(exactRingSpec(12+4*i, int64(i)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		st := waitTerminal(t, j, time.Minute)
		if st.State != StateDone || st.Result == nil {
			t.Fatalf("job %d ended in %s (%s)", i, st.State, st.Error)
		}
		rounds += uint64(st.Result.Rounds)
		messages += uint64(st.Result.Messages)
		m := s.Metrics()
		if m.RoundsSimulated != rounds || m.MessagesSimulated != messages {
			t.Fatalf("after job %d: Metrics rounds/messages = %d/%d, want running sums %d/%d",
				i, m.RoundsSimulated, m.MessagesSimulated, rounds, messages)
		}
		if m.PeakLinkWords <= 0 {
			t.Fatalf("after job %d: Metrics.PeakLinkWords = %d, want > 0", i, m.PeakLinkWords)
		}
	}
}

func TestListReturnsNewestFirst(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeService(t, s)

	var last *Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(exactRingSpec(16, int64(i)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitTerminal(t, j, time.Minute)
		last = j
	}
	list := s.List(2)
	if len(list) != 2 {
		t.Fatalf("List(2) returned %d entries", len(list))
	}
	if list[0].ID != last.ID() {
		t.Errorf("List(2)[0] = %s, want newest job %s", list[0].ID, last.ID())
	}

	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}

	// The limit reaches List unauthenticated via GET /v1/jobs?limit=N and
	// must never size an allocation directly: a huge value used to panic in
	// makeslice with the service mutex held, wedging the whole daemon. It is
	// clamped instead and returns every retained record.
	if got := s.List(1 << 62); len(got) != 3 {
		t.Errorf("List(huge) returned %d entries, want 3", len(got))
	}
	if got := s.List(maxListLimit + 1); len(got) != 3 {
		t.Errorf("List(maxListLimit+1) returned %d entries, want 3", len(got))
	}
}

// TestSubmitRejectsOversizedInstance: the MaxN admission cap must reject a
// generator spec with a huge N before any graph is built — a few request
// bytes must not buy O(N^2) work inside Submit (denial-of-service class).
func TestSubmitRejectsOversizedInstance(t *testing.T) {
	s := New(Config{Workers: 1, MaxN: 100})
	defer closeService(t, s)

	start := time.Now()
	_, err := s.Submit(Spec{
		Graph: GraphSpec{Class: "dw", Gen: &GenSpec{Kind: "random", N: 2_000_000_000, Seed: 1}},
		Algo:  AlgoExact,
	})
	if err == nil {
		t.Fatal("oversized generator spec admitted")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("rejection took %v; the cap must fire before graph construction", elapsed)
	}
	// Inline graphs are capped by the same check.
	if _, err := s.Submit(Spec{
		Graph: GraphSpec{Class: "ud", N: 101, Edges: []Edge{{From: 0, To: 1}}},
		Algo:  AlgoApprox,
	}); err == nil {
		t.Fatal("oversized inline spec admitted")
	}
	// At or under the cap, submission works.
	j, err := s.Submit(exactRingSpec(100, 1))
	if err != nil {
		t.Fatalf("at-cap submission rejected: %v", err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st.State != StateDone {
		t.Fatalf("at-cap job ended %s: %s", st.State, st.Error)
	}
}
