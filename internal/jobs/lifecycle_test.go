package jobs

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"congestmwc"
	"congestmwc/internal/obs"
)

// lifecycleEnv is one row's world: a single-worker service with Observe on
// and a recording journal, the worker held before every run until release.
type lifecycleEnv struct {
	t      *testing.T
	s      *Service
	fj     *fakeJournal
	gate   chan struct{}
	once   sync.Once
	before Metrics
	sse    func() []string
}

func newLifecycleEnv(t *testing.T) *lifecycleEnv {
	e := &lifecycleEnv{t: t, fj: newFakeJournal(), gate: make(chan struct{})}
	testBeforeRun = func() { <-e.gate }
	e.s = New(Config{Workers: 1, Observe: true, Journal: e.fj})
	return e
}

// release lets the worker run the held job and everything after it.
func (e *lifecycleEnv) release() { e.once.Do(func() { close(e.gate) }) }

// mark snapshots the counters the row's deltas are measured from.
func (e *lifecycleEnv) mark() { e.before = e.s.Metrics() }

// watch subscribes to the job's event hub and collects its state events
// until the hub closes. Rows call it while the worker is held, so the
// subscription sees every transition after the job's birth.
func (e *lifecycleEnv) watch(j *Job) {
	sub := j.Subscribe(1 << 12)
	if sub == nil {
		e.t.Fatal("Subscribe returned nil with Observe on")
	}
	out := make(chan []string, 1)
	go func() {
		var states []string
		for ev := range sub.Events() {
			if ev.Type == obs.EventState {
				states = append(states, ev.State)
			}
		}
		if n := sub.Dropped(); n > 0 {
			states = append(states, fmt.Sprintf("dropped %d", n))
		}
		out <- states
	}()
	e.sse = func() []string {
		select {
		case st := <-out:
			return st
		case <-time.After(time.Minute):
			e.t.Fatal("the job's event hub never closed")
			return nil
		}
	}
}

// lifecycleRow is what one row observes of its job.
type lifecycleRow struct {
	State       State
	CacheHit    bool
	Interrupted int
	// Deltas of Submitted, Deduped, Done, Failed, Cancelled, Expired from
	// mark to after the service closed.
	Deltas  [6]uint64
	Journal []string // the job's journal events, in order
	SSE     []string // the job's state events under Observe
}

// journalLine renders one journal event compactly: type, state and the
// fields it carries.
func journalLine(ev JournalEvent) string {
	s := string(ev.Type) + ":" + string(ev.State)
	if ev.Interrupted != 0 {
		s += fmt.Sprintf(" interrupted=%d", ev.Interrupted)
	}
	if ev.Key != "" {
		s += " +key"
	}
	if ev.Spec != nil {
		s += " +spec"
	}
	if ev.Result != nil {
		s += " +result"
	}
	if ev.Error != "" {
		s += " err=" + errGist(ev.Error)
	}
	return s
}

// errGist keeps an error's first and last ": "-separated segments — its
// origin and its cause. Run errors carry engine detail in between (the
// phase and round the stop landed in) that varies from run to run.
func errGist(msg string) string {
	parts := strings.Split(msg, ": ")
	if len(parts) <= 2 {
		return msg
	}
	return parts[0] + ": … " + parts[len(parts)-1]
}

func lifecycleCounters(m Metrics) [6]uint64 {
	return [6]uint64{m.Submitted, m.Deduped, m.Done, m.Failed, m.Cancelled, m.Expired}
}

// observe releases the worker, waits for the job and the service to end,
// and returns what the row saw.
func (e *lifecycleEnv) observe(j *Job) lifecycleRow {
	e.t.Helper()
	e.release()
	st := waitTerminal(e.t, j, 2*time.Minute)
	closeService(e.t, e.s)
	after := lifecycleCounters(e.s.Metrics())
	before := lifecycleCounters(e.before)
	row := lifecycleRow{State: st.State, CacheHit: st.CacheHit, Interrupted: st.InterruptedAttempts}
	for i := range row.Deltas {
		row.Deltas[i] = after[i] - before[i]
	}
	events, _, _ := e.fj.snapshot()
	for _, ev := range eventsFor(events, j.ID()) {
		row.Journal = append(row.Journal, journalLine(ev))
	}
	if e.sse == nil {
		e.t.Fatal("row never watched its job")
	}
	row.SSE = e.sse()
	return row
}

func specKey(t *testing.T, spec Spec) string {
	t.Helper()
	r, err := spec.resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	return cacheKey(r.g, r.algo, r.opts)
}

// Delta positions in lifecycleRow.Deltas.
const (
	dSubmitted = iota
	dDeduped
	dDone
	dFailed
	dCancelled
	dExpired
)

// deltas builds a row's expected counter deltas: one for each position
// named.
func deltas(counters ...int) [6]uint64 {
	var d [6]uint64
	for _, i := range counters {
		d[i]++
	}
	return d
}

// TestLifecycleMatrix pins every way a job enters and leaves the service:
// each admission path's branches and each terminal transition, with the
// final status, the counter deltas, the job's exact journal event sequence
// and its SSE state sequence. It records the differences between the
// admission paths (Restore counts Done/Failed but not Submitted; a Submit
// cache hit is not journaled while a SubmitWithID or Restore one is) so
// they cannot drift.
func TestLifecycleMatrix(t *testing.T) {
	small := exactRingSpec(16, 3)
	long := exactRingSpec(2048, 1)
	// Fails resolution with a short, stable message.
	unresolvable := Spec{Algo: AlgoExact, TimeoutMS: -1}

	admitRunDone := func(admit string) []string {
		return []string{admit, "state:running +key", "state:done +key +result"}
	}
	const admit = "admit:queued +key +spec"

	rows := []struct {
		name string
		run  func(e *lifecycleEnv) *Job
		want lifecycleRow
	}{
		{
			name: "Submit/fresh-done",
			run: func(e *lifecycleEnv) *Job {
				e.mark()
				j := e.must(e.s.Submit(small))
				e.watch(j)
				return j
			},
			want: lifecycleRow{
				State: StateDone, Deltas: deltas(dSubmitted, dDone),
				Journal: admitRunDone(admit), SSE: []string{"queued", "running", "done"},
			},
		},
		{
			name: "Submit/cache-hit",
			run: func(e *lifecycleEnv) *Job {
				e.release()
				waitTerminal(e.t, e.must(e.s.Submit(small)), time.Minute)
				e.mark()
				j := e.must(e.s.Submit(small))
				e.watch(j)
				return j
			},
			want: lifecycleRow{
				State: StateDone, CacheHit: true, Deltas: deltas(dSubmitted, dDone),
				SSE: []string{"done"},
			},
		},
		{
			name: "Submit/durable-hit",
			run: func(e *lifecycleEnv) *Job {
				e.fj.mu.Lock()
				e.fj.durable[specKey(e.t, small)] = &congestmwc.Result{Weight: 77, Found: true, Rounds: 5}
				e.fj.mu.Unlock()
				e.mark()
				j := e.must(e.s.Submit(small))
				e.watch(j)
				return j
			},
			want: lifecycleRow{
				State: StateDone, CacheHit: true, Deltas: deltas(dSubmitted, dDone),
				SSE: []string{"done"},
			},
		},
		{
			name: "Submit/inflight-dedup",
			run: func(e *lifecycleEnv) *Job {
				first := e.must(e.s.Submit(small))
				e.watch(first)
				e.mark()
				dup := e.must(e.s.Submit(small))
				if dup != first {
					e.t.Fatalf("duplicate got job %s, want the in-flight %s", dup.ID(), first.ID())
				}
				return dup
			},
			want: lifecycleRow{
				State: StateDone, Deltas: deltas(dDeduped, dDone),
				Journal: admitRunDone(admit), SSE: []string{"queued", "running", "done"},
			},
		},
		{
			name: "SubmitWithID/fresh",
			run: func(e *lifecycleEnv) *Job {
				e.mark()
				j := e.must(e.s.SubmitWithID("s9-j-00000042", small, 2))
				e.watch(j)
				return j
			},
			want: lifecycleRow{
				State: StateDone, Interrupted: 2, Deltas: deltas(dSubmitted, dDone),
				Journal: admitRunDone("admit:queued interrupted=2 +key +spec"),
				SSE:     []string{"queued", "running", "done"},
			},
		},
		{
			name: "SubmitWithID/cache-hit",
			run: func(e *lifecycleEnv) *Job {
				e.release()
				waitTerminal(e.t, e.must(e.s.Submit(small)), time.Minute)
				e.mark()
				j := e.must(e.s.SubmitWithID("s9-j-00000043", small, 1))
				e.watch(j)
				return j
			},
			want: lifecycleRow{
				State: StateDone, CacheHit: true, Interrupted: 1, Deltas: deltas(dSubmitted, dDone),
				Journal: []string{"state:done +key"}, SSE: []string{"done"},
			},
		},
		{
			name: "SubmitWithID/known-id",
			run: func(e *lifecycleEnv) *Job {
				first := e.must(e.s.SubmitWithID("s9-j-00000044", small, 0))
				e.watch(first)
				e.release()
				waitTerminal(e.t, first, time.Minute)
				e.mark()
				again := e.must(e.s.SubmitWithID("s9-j-00000044", exactRingSpec(16, 4), 3))
				if again != first {
					e.t.Fatalf("re-admitting a known ID got a new job")
				}
				return again
			},
			want: lifecycleRow{
				State: StateDone, Journal: admitRunDone(admit),
				SSE: []string{"queued", "running", "done"},
			},
		},
		{
			name: "Restore/requeue",
			run: func(e *lifecycleEnv) *Job {
				e.mark()
				return e.restore(RecoveredState{Pending: []RecoveredJob{{ID: "j-00000005", Spec: small, Interrupted: 1}}}, 0, 1)
			},
			want: lifecycleRow{
				State: StateDone, Interrupted: 1, Deltas: deltas(dDone),
				Journal: admitRunDone("admit:queued interrupted=1 +key +spec"),
				SSE:     []string{"queued", "running", "done"},
			},
		},
		{
			name: "Restore/durable-result",
			run: func(e *lifecycleEnv) *Job {
				e.mark()
				return e.restore(RecoveredState{
					Results: map[string]*congestmwc.Result{specKey(e.t, small): {Weight: 12, Found: true, Rounds: 8}},
					Pending: []RecoveredJob{{ID: "j-00000006", Spec: small, Interrupted: 1}},
				}, 1, 0)
			},
			want: lifecycleRow{
				State: StateDone, CacheHit: true, Interrupted: 1, Deltas: deltas(dDone),
				Journal: []string{"state:done +key"}, SSE: []string{"done"},
			},
		},
		{
			name: "Restore/unresolvable",
			run: func(e *lifecycleEnv) *Job {
				e.mark()
				return e.restore(RecoveredState{Pending: []RecoveredJob{{ID: "j-00000007", Spec: unresolvable, Interrupted: 1}}}, 0, 0)
			},
			want: lifecycleRow{
				State: StateFailed, Interrupted: 1, Deltas: deltas(dFailed),
				Journal: []string{"state:failed err=recovery: … negative timeoutMs -1"},
				SSE:     []string{"failed"},
			},
		},
		{
			name: "Cancel/queued",
			run: func(e *lifecycleEnv) *Job {
				e.mark()
				j := e.must(e.s.Submit(small))
				e.watch(j)
				if st, err := e.s.Cancel(j.ID()); err != nil || st.State != StateCancelled {
					e.t.Fatalf("Cancel = %s, %v; want cancelled at once", st.State, err)
				}
				return j
			},
			want: lifecycleRow{
				State: StateCancelled, Deltas: deltas(dSubmitted, dCancelled),
				Journal: []string{admit, "state:cancelled +key err=cancelled while queued"},
				SSE:     []string{"queued", "cancelled"},
			},
		},
		{
			name: "Cancel/running",
			run: func(e *lifecycleEnv) *Job {
				e.mark()
				j := e.must(e.s.Submit(long))
				e.watch(j)
				e.release()
				waitState(e.t, j, StateRunning, 30*time.Second)
				if _, err := e.s.Cancel(j.ID()); err != nil {
					e.t.Fatalf("Cancel: %v", err)
				}
				return j
			},
			want: lifecycleRow{
				State: StateCancelled, Deltas: deltas(dSubmitted, dCancelled),
				Journal: []string{admit, "state:running +key", "state:cancelled +key err=congestmwc: … context canceled"},
				SSE:     []string{"queued", "running", "cancelled"},
			},
		},
		{
			name: "Close/shutdown-cancel",
			run: func(e *lifecycleEnv) *Job {
				e.mark()
				j := e.must(e.s.Submit(small))
				e.watch(j)
				closed := make(chan error, 1)
				go func() { closed <- e.s.Close(context.Background()) }()
				for !e.s.draining.Load() {
					time.Sleep(time.Millisecond)
				}
				e.release()
				if err := <-closed; err != nil {
					e.t.Fatalf("Close: %v", err)
				}
				return j
			},
			want: lifecycleRow{
				State: StateCancelled, Deltas: deltas(dSubmitted, dCancelled),
				Journal: []string{admit, "state:cancelled +key err=cancelled by service shutdown"},
				SSE:     []string{"queued", "cancelled"},
			},
		},
		{
			name: "Run/expiry",
			run: func(e *lifecycleEnv) *Job {
				spec := long
				spec.TimeoutMS = 300
				e.mark()
				j := e.must(e.s.Submit(spec))
				e.watch(j)
				return j
			},
			want: lifecycleRow{
				State: StateExpired, Deltas: deltas(dSubmitted, dExpired),
				Journal: []string{admit, "state:running +key", "state:expired +key err=congestmwc: … context deadline exceeded"},
				SSE:     []string{"queued", "running", "expired"},
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := newLifecycleEnv(t)
			defer func() {
				e.release()
				closeService(t, e.s)
				testBeforeRun = nil
			}()
			got := e.observe(row.run(e))
			if !reflect.DeepEqual(got, row.want) {
				t.Errorf("lifecycle mismatch\n got: %s\nwant: %s", formatRow(got), formatRow(row.want))
			}
		})
	}
}

// restore runs Restore on the env's service, checks its tallies and
// returns the (single) recovered job, watched.
func (e *lifecycleEnv) restore(rec RecoveredState, wantWarmed, wantRequeued int) *Job {
	e.t.Helper()
	warmed, requeued, err := e.s.Restore(rec)
	if err != nil || warmed != wantWarmed || requeued != wantRequeued {
		e.t.Fatalf("Restore = (%d, %d, %v), want (%d, %d, nil)", warmed, requeued, err, wantWarmed, wantRequeued)
	}
	j, err := e.s.Get(rec.Pending[0].ID)
	if err != nil {
		e.t.Fatalf("recovered job: %v", err)
	}
	e.watch(j)
	return j
}

func formatRow(r lifecycleRow) string {
	return fmt.Sprintf("state=%s cacheHit=%v interrupted=%d deltas[sub,dedup,done,failed,cancelled,expired]=%v\n      journal=[%s]\n      sse=%v",
		r.State, r.CacheHit, r.Interrupted, r.Deltas, strings.Join(r.Journal, "; "), r.SSE)
}

// must turns an admission result into its job, failing the row on error.
func (e *lifecycleEnv) must(j *Job, err error) *Job {
	e.t.Helper()
	if err != nil {
		e.t.Fatalf("admission: %v", err)
	}
	return j
}

// blockingJournal holds the first terminal-state Record call until
// released, standing in for a durable journal whose result write and
// fsync are slow.
type blockingJournal struct {
	*fakeJournal
	once    sync.Once
	release chan struct{}
}

func (b *blockingJournal) Record(ev JournalEvent) {
	if ev.Type == EventState && ev.State.Terminal() {
		b.once.Do(func() { <-b.release })
	}
	b.fakeJournal.Record(ev)
}

// TestResubmitAfterTerminalRunsAgain is the regression test for a
// resubmission right after Wait being deduplicated onto the dead job: the
// job must leave the in-flight index before Wait returns, even while its
// terminal journal record is still being written, so the same spec
// resubmitted then runs again instead of answering with the dead job.
func TestResubmitAfterTerminalRunsAgain(t *testing.T) {
	expiring := exactRingSpec(2048, 1)
	expiring.TimeoutMS = 200
	rows := []struct {
		name string
		spec Spec
		// end drives the held job to its terminal state. The journal holds
		// that transition's record, so end must not wait for it.
		end  func(e *lifecycleEnv, j *Job)
		want State
	}{
		{
			name: "cancelled-while-queued",
			spec: exactRingSpec(64, 1),
			end:  func(e *lifecycleEnv, j *Job) { go e.s.Cancel(j.ID()) },
			want: StateCancelled,
		},
		{
			name: "expired",
			spec: expiring,
			end:  func(e *lifecycleEnv, j *Job) { e.release() },
			want: StateExpired,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			bj := &blockingJournal{fakeJournal: newFakeJournal(), release: make(chan struct{})}
			e := &lifecycleEnv{t: t, gate: make(chan struct{})}
			testBeforeRun = func() { <-e.gate }
			e.s = New(Config{Workers: 1, Journal: bj})
			var journalOnce sync.Once
			releaseJournal := func() { journalOnce.Do(func() { close(bj.release) }) }
			defer func() {
				releaseJournal()
				e.release()
				closeService(t, e.s)
				testBeforeRun = nil
			}()

			b := e.must(e.s.Submit(row.spec))
			row.end(e, b)
			if st := waitTerminal(t, b, 2*time.Minute); st.State != row.want {
				t.Fatalf("job ended %s (%s), want %s", st.State, st.Error, row.want)
			}
			before := e.s.Metrics()
			// A longer timeout does not change the cache key: the retry is
			// the same work and must run again.
			retry := row.spec
			retry.TimeoutMS = 0
			again := e.must(e.s.Submit(retry))
			dedup := e.s.Metrics().Deduped - before.Deduped
			releaseJournal()
			if again == b {
				t.Fatalf("resubmission after Wait returned the dead job %s (state %s)", b.ID(), b.Status().State)
			}
			if dedup != 0 {
				t.Errorf("resubmission counted %d dedups, want 0", dedup)
			}
			if st := again.Status(); st.State.Terminal() {
				t.Errorf("resubmitted job is %s at admission, want queued or running", st.State)
			}
			e.release()
			if _, err := e.s.Cancel(again.ID()); err != nil {
				t.Fatalf("Cancel: %v", err)
			}
			waitTerminal(t, again, 2*time.Minute)
		})
	}
}
