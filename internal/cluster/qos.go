package cluster

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrTenantQuota is returned by Acquire/TryAcquire when admitting the job
// would push its tenant past the tenant's outstanding-cost quota. It maps
// to 429 at the router: the tenant must wait for its own jobs to finish,
// however idle the cluster is.
var ErrTenantQuota = errors.New("cluster: tenant cost quota exceeded")

// ErrCapacity is returned by TryAcquire when the cluster-wide in-flight
// cost budget is exhausted and the caller asked not to wait.
var ErrCapacity = errors.New("cluster: in-flight cost capacity exhausted")

// TenantConfig is one tenant's QoS policy.
type TenantConfig struct {
	// Weight is the tenant's fair share (default 1). A tenant with weight 2
	// drains its backlog twice as fast as a weight-1 tenant under
	// contention; it buys priority for contended capacity, not exemption
	// from it.
	Weight float64
	// MaxOutstandingCost caps the tenant's total admitted-but-unfinished
	// cost (waiting + executing). 0 = unlimited.
	MaxOutstandingCost float64
}

// FairQueue is the router's cost-based admission gate: a weighted fair
// queue over a shared in-flight cost budget. Each job Acquires its
// estimated cost before being dispatched to a worker and releases it when
// the job reaches a terminal state; while the budget is full, waiters are
// admitted in virtual-finish-time order — the classic WFQ discipline, so a
// tenant's share of contended capacity is proportional to its weight and
// one tenant's burst cannot starve the others.
type FairQueue struct {
	capacity float64

	mu       sync.Mutex
	inflight float64
	vt       float64 // global virtual time: max virtual start admitted so far
	tenants  map[string]*tenantState
	waiters  waiterHeap
	seq      uint64 // FIFO tie-break for equal virtual finish times

	admitted uint64
	waited   uint64
	rejected uint64 // quota rejections
	bounced  uint64 // TryAcquire capacity bounces
}

type tenantState struct {
	cfg         TenantConfig
	outstanding float64
	lastFinish  float64
}

type waiter struct {
	finish float64
	seq    uint64
	cost   float64
	tenant *tenantState
	ready  chan struct{}
	index  int
}

// NewFairQueue builds the gate. capacity <= 0 means an unbounded budget:
// quotas still apply but nothing ever waits. tenants may be nil; tenants
// not listed get weight 1 and no quota.
func NewFairQueue(capacity float64, tenants map[string]TenantConfig) *FairQueue {
	q := &FairQueue{
		capacity: capacity,
		tenants:  make(map[string]*tenantState),
	}
	for name, cfg := range tenants {
		q.tenants[name] = &tenantState{cfg: cfg}
	}
	return q
}

func (q *FairQueue) tenant(name string) *tenantState {
	ts := q.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		q.tenants[name] = ts
	}
	return ts
}

func (ts *tenantState) weight() float64 {
	if ts.cfg.Weight > 0 {
		return ts.cfg.Weight
	}
	return 1
}

// Acquire blocks until cost units of the budget are available (in WFQ
// order among waiters) or ctx is done, and returns the matching release
// function. A job larger than the whole capacity is admitted alone, when
// nothing else is in flight — oversized work runs, it just cannot share.
// Quota violations fail fast with ErrTenantQuota.
func (q *FairQueue) Acquire(ctx context.Context, tenant string, cost float64) (func(), error) {
	w, release, err := q.admitOrEnqueue(tenant, cost, true)
	if err != nil || w == nil {
		return release, err
	}
	select {
	case <-w.ready:
		return release, nil
	case <-ctx.Done():
		q.abandon(w)
		return nil, ctx.Err()
	}
}

// TryAcquire is Acquire without the wait: if the budget cannot take the
// job right now it returns ErrCapacity immediately. The batch endpoint
// uses it so one oversized batch reports per-item backpressure instead of
// stalling the whole request.
func (q *FairQueue) TryAcquire(tenant string, cost float64) (func(), error) {
	w, release, err := q.admitOrEnqueue(tenant, cost, false)
	if err != nil {
		return nil, err
	}
	if w != nil { // unreachable by construction, but fail closed
		q.abandon(w)
		return nil, ErrCapacity
	}
	return release, nil
}

// admitOrEnqueue applies quota, then either admits immediately (returning
// the release func), enqueues a waiter (wait=true), or reports ErrCapacity
// (wait=false).
func (q *FairQueue) admitOrEnqueue(tenant string, cost float64, wait bool) (*waiter, func(), error) {
	if cost < 0 {
		return nil, nil, fmt.Errorf("cluster: negative cost %v", cost)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	ts := q.tenant(tenant)
	if ts.cfg.MaxOutstandingCost > 0 && ts.outstanding+cost > ts.cfg.MaxOutstandingCost {
		q.rejected++
		return nil, nil, fmt.Errorf("%w: tenant %q outstanding %.0f + %.0f > %.0f",
			ErrTenantQuota, tenant, ts.outstanding, cost, ts.cfg.MaxOutstandingCost)
	}
	start := q.vt
	if ts.lastFinish > start {
		start = ts.lastFinish
	}
	finish := start + cost/ts.weight()

	if q.fitsLocked(cost) && len(q.waiters) == 0 {
		ts.outstanding += cost
		ts.lastFinish = finish
		q.inflight += cost
		q.vt = start
		q.admitted++
		return nil, q.releaseFunc(ts, cost), nil
	}
	if !wait {
		q.bounced++
		return nil, nil, fmt.Errorf("%w: in flight %.0f + %.0f > %.0f",
			ErrCapacity, q.inflight, cost, q.capacity)
	}
	ts.outstanding += cost
	ts.lastFinish = finish
	q.seq++
	q.waited++
	w := &waiter{finish: finish, seq: q.seq, cost: cost, tenant: ts, ready: make(chan struct{})}
	heap.Push(&q.waiters, w)
	return w, q.releaseFunc(ts, cost), nil
}

// fitsLocked: cost fits in the remaining budget, or the queue is unbounded,
// or the queue is idle (oversized jobs run alone rather than never).
func (q *FairQueue) fitsLocked(cost float64) bool {
	return q.capacity <= 0 || q.inflight == 0 || q.inflight+cost <= q.capacity
}

// releaseFunc returns the idempotent release for one admitted cost.
func (q *FairQueue) releaseFunc(ts *tenantState, cost float64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			q.mu.Lock()
			defer q.mu.Unlock()
			q.inflight -= cost
			ts.outstanding -= cost
			q.wakeLocked()
		})
	}
}

// wakeLocked admits waiters, lowest virtual finish time first, while they
// fit the freed budget.
func (q *FairQueue) wakeLocked() {
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		if !q.fitsLocked(w.cost) {
			return
		}
		heap.Pop(&q.waiters)
		q.inflight += w.cost
		if w.finish > q.vt {
			q.vt = w.finish
		}
		q.admitted++
		close(w.ready)
	}
}

// abandon removes a waiter whose Acquire was cancelled before admission,
// rolling its cost out of the tenant's outstanding total. If the waiter
// was admitted concurrently with the cancellation, its budget share is
// returned instead.
func (q *FairQueue) abandon(w *waiter) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case <-w.ready: // lost the race: already admitted, give the share back
		q.inflight -= w.cost
	default:
		heap.Remove(&q.waiters, w.index)
	}
	w.tenant.outstanding -= w.cost
	q.wakeLocked()
}

// QueueMetrics is a point-in-time snapshot of the gate.
type QueueMetrics struct {
	Capacity        float64
	Inflight        float64
	Waiting         int
	Admitted        uint64
	Waited          uint64
	QuotaRejected   uint64
	CapacityBounced uint64
}

// Metrics snapshots the gate's counters.
func (q *FairQueue) Metrics() QueueMetrics {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueMetrics{
		Capacity:        q.capacity,
		Inflight:        q.inflight,
		Waiting:         len(q.waiters),
		Admitted:        q.admitted,
		Waited:          q.waited,
		QuotaRejected:   q.rejected,
		CapacityBounced: q.bounced,
	}
}

// waiterHeap orders waiters by virtual finish time, FIFO on ties.
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, k int) bool {
	if h[i].finish != h[k].finish {
		return h[i].finish < h[k].finish
	}
	return h[i].seq < h[k].seq
}
func (h waiterHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].index, h[k].index = i, k
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return w
}
