package proto

import (
	"cmp"
	"fmt"
	"slices"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

// Direction selects how distance propagation relates to the input graph's
// arc orientations.
type Direction int

// Traversal directions.
const (
	// Forward follows arc directions: the result is d(source -> v).
	Forward Direction = iota + 1
	// Backward follows reversed arcs: the result is d(v -> source) of the
	// original graph, i.e. BFS in the reversed graph.
	Backward
	// Undirected ignores orientations.
	Undirected
)

// MultiBFSSpec describes one run of the pipelined multi-source BFS / SSSP
// substrate (Lenzen-Patt-Shamir style source detection, [37] in the paper).
//
// The protocol maintains at every node a distance estimate per field
// (source). Estimates relax over arcs; each node forwards at most one
// (field, dist) pair per round per link, smallest pair first. FIFO links
// pipeline the waves, giving the O(k+h) behaviour for k-source hop-h BFS.
type MultiBFSSpec struct {
	// Sources lists the source vertices; field i corresponds to Sources[i].
	// The source list is global knowledge (in the paper it is derived from
	// shared randomness or is the full vertex set).
	Sources []int
	// Dir is the traversal direction.
	Dir Direction
	// Bound caps recorded distances: estimates above Bound are discarded
	// (the h-hop / h-weight restriction). <= 0 means unbounded.
	Bound int64
	// TopSigma, when positive, stops a node from forwarding pairs that do
	// not rank among the sigma lexicographically smallest (dist, field)
	// pairs it knows — the source-detection cutoff used for the
	// sqrt(n)-neighbourhood computation of Section 4.
	TopSigma int
	// Length gives each arc's length; nil means unit lengths (BFS). With
	// Stretch, lengths below 1 count as 1 (a traversal takes at least one
	// round); plain relaxation uses them as given, zero included, and
	// counts only negative lengths as 1.
	Length func(a graph.Arc) int64
	// Stretch selects the stretched-graph simulation of Section 5:
	// traversing an arc of length L takes L rounds, exactly as if the edge
	// were subdivided into unit edges simulated at the tail endpoint. When
	// false (plain weighted CONGEST), weights are data: every message
	// crosses its edge in one round and the protocol is the pipelined
	// distributed Bellman-Ford.
	Stretch bool
	// Rows asks for MultiBFSResult.Rows: at every node, each neighbour's
	// final (dist, pred) per field, as far as the relaxation sent it. Every
	// relaxation message then carries the sender's predecessor too (tag
	// plus three words, one message at the default bandwidth). Only on
	// undirected graphs, where both orientations of an edge have the same
	// length, and without TopSigma.
	Rows bool
	// AnswerBound, with Rows and unit lengths (Length nil), lets each node
	// stop forwarding a field once the pair cannot lower the lightest cycle
	// the run's non-tree scan reports. Node v keeps U_v, the lightest closed
	// walk it has seen: a row (f, d_y+1, pred_y) from y while v holds
	// dist[f] < Inf, pred[f] != y and pred_y != v closes the walk of weight
	// dist[f] + d_y + 1, which uses the edge (v,y) once and so contains a
	// cycle. v then drops a pair (f, d) with 2d >= U_v instead of
	// forwarding it. Distances, predecessors and rows above half the
	// minimum cycle weight may stay incomplete; DESIGN.md §3 (girth) argues
	// that the scan still finds the minimum when every vertex is a source.
	AnswerBound bool
}

// MultiBFSResult holds per-node distance fields.
type MultiBFSResult struct {
	// Dist[v][i] is the computed distance for field i at node v (seq.Inf
	// if unknown or beyond Bound).
	Dist [][]int64
	// Pred[v][i] is the neighbour from which v first obtained its final
	// estimate (-1 for none, e.g. at the source itself). Pred edges form,
	// per field, a tree of shortest paths.
	Pred [][]int32
	// Rows, when the spec asked for them, are the neighbour rows in the
	// dense shape of a field-wide ExchangeDistPred: field f of y's slot at
	// x is (d(f,y), y's pred) wherever y forwarded that distance to x, and
	// (seq.Inf, -1) elsewhere. A sender forwards only d+len <= Bound, so an
	// entry is missing exactly when d(f,y) + len(x,y) exceeds Bound.
	Rows *Received
	// Rounds consumed by this run.
	Rounds int
}

// pairHeap is a lazy min-heap of (dist, field) pairs pending forwarding,
// hand-rolled on the concrete element type: this is the hottest data
// structure of the whole simulator (one push per relaxation, one pop per
// Tick), and container/heap would box every element in an interface value —
// a heap allocation per operation. Pop order is deterministic regardless of
// internal layout because (dist, field) is a total order on the heap's
// contents (record never pushes the same field at the same distance twice).
type pairItem struct {
	dist  int64
	field int32
}

func (a pairItem) less(b pairItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.field < b.field
}

type pairHeap []pairItem

func (h *pairHeap) push(it pairItem) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].less(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *pairHeap) pop() pairItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && s[r].less(s[l]) {
			l = r
		}
		if !s[l].less(s[i]) {
			break
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
	*h = s
	return top
}

// delayed is one scheduled stretched-edge relaxation, linked into its
// arc's queue. It stores the pair's raw fields rather than a built message
// so the node's pool is pointer-free and copies without GC write barriers.
type delayed struct {
	fire  int
	dist  int64
	field int32
	next  int32 // next entry of the same queue (or of the free list); -1 ends it
}

// arcState is one traversal arc's effective length and its FIFO of delayed
// sends, linked through the node's pool. An arc's length is fixed and a
// node forwards at most one pair per Tick, so fire rounds strictly increase
// along a queue: its head is its earliest send, and at most one entry per
// arc falls due in any round.
type arcState struct {
	length     int64
	head, tail int32 // -1 when the queue is empty
}

// bfsRun is what a run's nodes share: the spec and, when it asks for
// them, the neighbour rows each node fills in its own slots.
type bfsRun struct {
	MultiBFSSpec
	rows *Received
}

type bfsNode struct {
	congest.Base
	v     int
	spec  *bfsRun
	dist  []int64
	pred  []int32
	dirty pairHeap
	// bound is U_v of an AnswerBound run: the lightest closed walk through
	// a non-tree edge at v seen so far (seq.Inf until one closes).
	bound int64
	// arcs are the node's traversal arcs for spec.Dir and out their
	// lengths and queues, resolved once at Init: spec.Length is pure, and
	// on the scaled graphs of Section 5 it costs a math.Pow per call.
	arcs []graph.Arc
	out  []arcState
	// Stretched-edge simulation: the queued sends live in pool (free heads
	// its free list); flushOrder is the order due sends leave in, nil for
	// arc order. pending counts queued sends and nextFire is the earliest
	// fire among the queue heads — the one wake-up the node holds for them.
	pool       []delayed
	free       int32
	flushOrder []int32
	pending    int
	nextFire   int
}

func (b *bfsNode) record(field int32, d int64, from int32) bool {
	if b.spec.Bound > 0 && d > b.spec.Bound {
		return false
	}
	if d >= b.dist[field] {
		return false
	}
	b.dist[field] = d
	b.pred[field] = from
	b.dirty.push(pairItem{dist: d, field: field})
	return true
}

func (b *bfsNode) Init(nd *congest.Node) {
	b.arcs = arcsFor(nd, b.spec.Dir)
	b.out = make([]arcState, len(b.arcs))
	b.free = -1
	delays := false
	for i, a := range b.arcs {
		length := int64(1)
		if b.spec.Length != nil {
			l := b.spec.Length(a)
			switch {
			case b.spec.Stretch:
				// Stretched simulation: traversal takes max(1, l) rounds
				// and contributes the same to the distance.
				if l > 1 {
					length = l
					delays = true
				}
			case l >= 0:
				// Plain weighted relaxation: weights are data; zero is a
				// legal arc length.
				length = l
			}
		}
		b.out[i] = arcState{length: length, head: -1, tail: -1}
	}
	if delays && nd.Directed() && b.spec.Dir == Undirected {
		// Out and In arcs may reach the same neighbour. Sends due in the
		// same round must leave in creation order, which matters only on a
		// shared link: the longer arc's send was created first.
		b.flushOrder = make([]int32, len(b.arcs))
		for i := range b.flushOrder {
			b.flushOrder[i] = int32(i)
		}
		slices.SortStableFunc(b.flushOrder, func(i, j int32) int {
			if b.arcs[i].To != b.arcs[j].To {
				return b.arcs[i].To - b.arcs[j].To
			}
			return cmp.Compare(b.out[j].length, b.out[i].length)
		})
	}
	for i, s := range b.spec.Sources {
		if s == b.v {
			b.record(int32(i), 0, -1)
		}
	}
	if len(b.dirty) > 0 {
		nd.WakeNext()
	}
}

func (b *bfsNode) Deliver(nd *congest.Node, d congest.Delivery) {
	if d.Msg.Tag != tagBFSPair {
		return
	}
	field := int32(d.Msg.Words[0])
	if b.spec.AnswerBound {
		if df := b.dist[field]; df < seq.Inf && b.pred[field] != int32(d.From) && d.Msg.Words[2] != int64(b.v) {
			b.bound = min(b.bound, df+d.Msg.Words[1])
		}
	}
	b.record(field, d.Msg.Words[1], int32(d.From))
	if r := b.spec.rows; r != nil {
		// The sender's distance is the value minus the edge's length; arcs
		// and neighbour slots share one order on an undirected graph. Its
		// distances only fall and its link is FIFO, so the smallest value
		// heard is its final distance, sent with its final predecessor.
		s := slotOf(nd.Neighbors(), d.From)
		e := &r.dense[(r.off[b.v]+s)*r.k+int(field)]
		if dy := d.Msg.Words[1] - b.out[s].length; dy < e.A {
			*e = Pair{A: dy, B: d.Msg.Words[2]}
		}
	}
}

// rank returns how many known (dist, field) pairs are lexicographically
// smaller than (d, f).
func (b *bfsNode) rank(d int64, f int32) int {
	count := 0
	for i, dd := range b.dist {
		if dd < d || (dd == d && int32(i) < f) {
			count++
		}
	}
	return count
}

func (b *bfsNode) Tick(nd *congest.Node) {
	now := nd.Round()
	if b.pending > 0 && b.nextFire <= now {
		b.flush(nd, now)
	}
	// Forward the smallest still-valid dirty pair. Sends go through SendTag
	// with inline payloads: Send copies the words into the link arena, so the
	// variadic slice stays on the stack.
	forwarded := false
	for len(b.dirty) > 0 && !forwarded {
		it := b.dirty.pop()
		if it.dist != b.dist[it.field] {
			continue // stale entry
		}
		if b.spec.TopSigma > 0 && b.rank(it.dist, it.field) >= b.spec.TopSigma {
			continue // beyond the sigma nearest: do not forward
		}
		if b.spec.AnswerBound && 2*it.dist >= b.bound {
			continue // cannot lower the lightest cycle: do not forward
		}
		for i, a := range b.arcs {
			length := b.out[i].length
			nd2 := it.dist + length
			if b.spec.Bound > 0 && nd2 > b.spec.Bound {
				continue
			}
			if length == 1 || !b.spec.Stretch {
				b.send(nd, a.To, it.field, nd2)
				continue
			}
			fire := now + int(length) - 1
			b.enqueue(i, delayed{fire: fire, dist: nd2, field: it.field, next: -1})
			if b.pending == 0 || fire < b.nextFire {
				b.nextFire = fire
				nd.WakeAt(fire)
			}
			b.pending++
		}
		forwarded = true
	}
	if len(b.dirty) > 0 {
		nd.WakeNext()
	}
}

// send forwards one relaxation. With Rows it adds the predecessor as it is
// now: a delayed send may leave after its distance was superseded, but the
// final distance's send is queued after it, carrying the final predecessor.
func (b *bfsNode) send(nd *congest.Node, to int, field int32, d int64) {
	if b.spec.Rows {
		nd.SendTag(to, tagBFSPair, int64(field), d, int64(b.pred[field]))
		return
	}
	nd.SendTag(to, tagBFSPair, int64(field), d)
}

// enqueue appends e to arc i's queue, reusing a freed pool entry if any.
func (b *bfsNode) enqueue(i int, e delayed) {
	idx := b.free
	if idx >= 0 {
		b.free = b.pool[idx].next
		b.pool[idx] = e
	} else {
		idx = int32(len(b.pool))
		b.pool = append(b.pool, e)
	}
	q := &b.out[i]
	if q.tail >= 0 {
		b.pool[q.tail].next = idx
	} else {
		q.head = idx
	}
	q.tail = idx
}

// flush sends the delayed sends due this round — at most one per arc, each
// at its queue head — and arms the wake-up for the new earliest fire.
func (b *bfsNode) flush(nd *congest.Node, now int) {
	next := 0
	if b.flushOrder == nil {
		for i := range b.out {
			next = b.flushArc(nd, i, now, next)
		}
	} else {
		for _, i := range b.flushOrder {
			next = b.flushArc(nd, int(i), now, next)
		}
	}
	b.nextFire = next
	if b.pending > 0 {
		nd.WakeAt(next)
	}
}

// flushArc sends arc i's head if it is due and returns next lowered to the
// arc's earliest remaining fire (0 = none yet).
func (b *bfsNode) flushArc(nd *congest.Node, i, now, next int) int {
	q := &b.out[i]
	if q.head < 0 {
		return next
	}
	if p := b.pool[q.head]; p.fire <= now {
		b.send(nd, b.arcs[i].To, p.field, p.dist)
		b.pending--
		b.pool[q.head].next = b.free
		b.free = q.head
		if q.head = p.next; q.head < 0 {
			q.tail = -1
			return next
		}
	}
	if f := b.pool[q.head].fire; next == 0 || f < next {
		return f
	}
	return next
}

// RunMultiBFS executes the spec on the network and returns per-node
// distances and predecessors.
func RunMultiBFS(net *congest.Network, spec MultiBFSSpec) (*MultiBFSResult, error) {
	n := net.Graph().N()
	k := len(spec.Sources)
	if k == 0 {
		return nil, fmt.Errorf("proto: no sources")
	}
	if spec.Dir == 0 {
		spec.Dir = Undirected
	}
	if spec.Rows && (net.Graph().Directed() || spec.TopSigma > 0) {
		return nil, fmt.Errorf("proto: neighbour rows need an undirected graph and no TopSigma")
	}
	if spec.AnswerBound && (!spec.Rows || spec.Length != nil) {
		return nil, fmt.Errorf("proto: the answer bound needs neighbour rows and unit lengths")
	}
	res := &MultiBFSResult{
		Dist: make([][]int64, n),
		Pred: make([][]int32, n),
	}
	if spec.Rows {
		res.Rows = newReceived(net)
		res.Rows.setDense(k)
	}
	// One arena per table, sliced into the nodes' rows.
	dists := make([]int64, n*k)
	preds := make([]int32, n*k)
	for i := range dists {
		dists[i] = seq.Inf
		preds[i] = -1
	}
	progs := make([]congest.Program, n)
	nodes := make([]bfsNode, n)
	run := &bfsRun{MultiBFSSpec: spec, rows: res.Rows}
	for v := range nodes {
		res.Dist[v] = dists[v*k : (v+1)*k : (v+1)*k]
		res.Pred[v] = preds[v*k : (v+1)*k : (v+1)*k]
		nodes[v] = bfsNode{v: v, spec: run, dist: res.Dist[v], pred: res.Pred[v], bound: seq.Inf}
		progs[v] = &nodes[v]
	}
	rounds, err := net.Run(progs, 0)
	res.Rounds = rounds
	if err != nil {
		return res, fmt.Errorf("multi-bfs: %w", err)
	}
	return res, nil
}
