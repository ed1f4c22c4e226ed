package jobs

import (
	"time"

	"congestmwc"
)

// JournalEventType discriminates write-ahead-journal records.
type JournalEventType string

// Journal event types.
const (
	// EventAdmit records a validated admission: the event carries the full
	// job spec, so recovery can rebuild and re-enqueue the job.
	EventAdmit JournalEventType = "admit"
	// EventState records a state transition; for StateDone it also carries
	// the terminal result.
	EventState JournalEventType = "state"
)

// JournalEvent is one job lifecycle event handed to the Journal. Events for
// a single job are emitted in lifecycle order (admit → running → terminal):
// admission holds the job's lock until its admit record is recorded, and a
// worker takes that lock before it records anything for the job. Replay
// should still never let an admit regress an already-recorded state.
type JournalEvent struct {
	Type  JournalEventType
	ID    string
	Key   string
	State State
	Error string
	Time  time.Time
	// Interrupted is the number of prior attempts at this job cut short by
	// a crash (admit events only; nonzero when recovery re-admits a job).
	Interrupted int
	// Spec is the job's submission spec (admit events only).
	Spec *Spec
	// Result is the terminal result (EventState with StateDone only).
	// Journal implementations must treat it as immutable.
	Result *congestmwc.Result
}

// Journal persists job lifecycle events and terminal results, and answers
// result lookups that miss the in-memory cache. A nil Config.Journal keeps
// the service purely in-memory (every call is skipped). Implementations
// must be safe for concurrent use; internal/store is the durable
// implementation.
type Journal interface {
	// Record appends one lifecycle event. It must not block indefinitely:
	// the service calls it on the submission and worker paths.
	Record(ev JournalEvent)
	// Lookup consults the durable result store after an in-memory cache
	// miss. A hit is promoted into the in-memory cache by the service.
	Lookup(key string) (*congestmwc.Result, bool)
	// Sync flushes and fsyncs any buffered events. Service.Close calls it
	// after the workers have exited — i.e. after the final state
	// transitions of the last batch — so a graceful shutdown never loses
	// terminal results.
	Sync() error
}

// RecoveredJob is one job that was queued or running when the previous
// process stopped, as reconstructed from the journal.
type RecoveredJob struct {
	// ID is the job's original identifier; Restore preserves it so clients
	// can keep polling the IDs they hold across a restart.
	ID string
	// Spec is the job's submission spec, re-resolved by Restore.
	Spec Spec
	// Interrupted counts the attempts at this job cut short by a crash,
	// including the one being recovered from.
	Interrupted int
}

// RecoveredState is what a journal implementation reconstructs from disk
// for Service.Restore.
type RecoveredState struct {
	// Results maps cache keys to durable terminal results; Restore
	// pre-warms the in-memory result cache with them (the LRU capacity
	// bounds how many stay resident — the rest remain reachable through
	// Journal.Lookup).
	Results map[string]*congestmwc.Result
	// Pending holds the jobs to re-enqueue, oldest first.
	Pending []RecoveredJob
	// MaxID is the highest numeric job-ID suffix ever journaled; Restore
	// bumps the ID counter past it so new submissions cannot collide with
	// pre-crash job IDs.
	MaxID int64
}

// StoreMetrics is the persistence subsystem's operational snapshot,
// surfaced through Service.Metrics and /metrics when the journal
// implements StoreMetricser.
type StoreMetrics struct {
	WALBytes       int64  `json:"walBytes"`
	WALRecords     uint64 `json:"walRecords"`
	Fsyncs         uint64 `json:"fsyncs"`
	Snapshots      uint64 `json:"snapshots"`
	RecoveredJobs  int    `json:"recoveredJobs"`
	DurableResults int    `json:"durableResults"`
	DurableHits    uint64 `json:"durableHits"`
	DroppedRecords uint64 `json:"droppedRecords"`
}

// StoreMetricser is optionally implemented by a Journal to surface
// persistence metrics through the service's /metrics endpoint.
type StoreMetricser interface {
	StoreMetrics() StoreMetrics
}
