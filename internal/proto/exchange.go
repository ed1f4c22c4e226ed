package proto

import (
	"fmt"
	"slices"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
	"congestmwc/internal/seq"
)

// PredUnknown marks a predecessor entry whose realized path does not end in
// a known edge (ksssp's composed skeleton paths). Such an entry cannot
// certify that an edge is off the shortest-path tree.
const PredUnknown int32 = -2

// Pair is the two-word payload of one exchanged field.
type Pair struct{ A, B int64 }

// Entry is one record of a field-set exchange row.
type Entry struct {
	Field int
	Pair
}

// ExchangeSpec describes one neighbour exchange: every node sends one
// (field, A, B) message per selected field to every communication
// neighbour, all from its Init, so the FIFO links pipeline the records in
// O(fields) rounds. Callers keep their own tag, send set and payload, so
// the messages are exactly the ones their protocol defines.
type ExchangeSpec struct {
	// Tag is the records' message tag.
	Tag int64
	// Fields is the field count k of the dense mode: every node offers
	// fields 0..k-1 in ascending order and a receive row is a k-wide table,
	// O(k * deg) memory per node.
	Fields int
	// Sets selects the field-set mode when non-nil: node v offers exactly
	// the fields Sets[v], in that order, and a receive row is a list sorted
	// by field, O(sum of the neighbours' |Sets|) memory per node. Fields is
	// ignored.
	Sets [][]int
	// Value returns node v's payload for field f; ok == false sends nothing
	// for that field.
	Value func(v, f int) (p Pair, ok bool)
}

// absent is what a field that was not received reads as: no distance, no
// predecessor.
var absent = Pair{A: seq.Inf, B: -1}

// Received is what every node received in one exchange, or the neighbour
// rows of one relaxation (MultiBFSSpec.Rows). Rows are indexed by the
// node's sorted-neighbour slot: slot i of node v holds what
// Network.Neighbors(v)[i] sent.
type Received struct {
	nbrs  [][]int // per node, the network's sorted communication neighbours
	off   []int   // node v's slots are off[v]..off[v+1]
	k     int     // dense row width
	dense []Pair  // dense mode: field f of slot s at s*k+f

	// Field-set mode (rowOff != nil): slot s's entries are
	// ents[rowOff[s]:end[s]], sorted by field once the run is over.
	rowOff, end []int
	ents        []Entry
}

// newReceived lays out one slot per node and communication neighbour,
// with no rows yet.
func newReceived(net *congest.Network) *Received {
	n := net.Graph().N()
	r := &Received{nbrs: make([][]int, n), off: make([]int, n+1)}
	for v := 0; v < n; v++ {
		r.nbrs[v] = net.Neighbors(v)
		r.off[v+1] = r.off[v] + len(r.nbrs[v])
	}
	return r
}

// setDense gives every slot a k-wide row of absent entries.
func (r *Received) setDense(k int) {
	r.k = k
	r.dense = make([]Pair, r.off[len(r.off)-1]*k)
	for i := range r.dense {
		r.dense[i] = absent
	}
}

// Exchange runs one neighbour exchange and returns what every node
// received.
func Exchange(net *congest.Network, spec ExchangeSpec) (*Received, error) {
	n := net.Graph().N()
	r := newReceived(net)
	slots := r.off[n]
	if spec.Sets != nil {
		if len(spec.Sets) != n {
			return nil, fmt.Errorf("proto: exchange has %d field sets for %d nodes", len(spec.Sets), n)
		}
		r.rowOff = make([]int, slots+1)
		for v, s := 0, 0; v < n; v++ {
			for _, u := range r.nbrs[v] {
				r.rowOff[s+1] = r.rowOff[s] + len(spec.Sets[u])
				s++
			}
		}
		r.end = slices.Clone(r.rowOff[:slots])
		r.ents = make([]Entry, r.rowOff[slots])
	} else {
		r.setDense(spec.Fields)
	}
	nodes := make([]exchangeNode, n)
	progs := make([]congest.Program, n)
	for v := range nodes {
		nodes[v] = exchangeNode{v: v, spec: &spec, r: r}
		progs[v] = &nodes[v]
	}
	if _, err := net.Run(progs, 0); err != nil {
		return nil, fmt.Errorf("exchange: %w", err)
	}
	for s, hi := range r.end {
		row := r.ents[r.rowOff[s]:hi]
		slices.SortFunc(row, func(a, b Entry) int { return a.Field - b.Field })
	}
	return r, nil
}

// exchangeNode is one node's program: send in Init, file each delivery
// under the sender's slot. A node writes only its own slots' rows, which is
// what keeps the parallel engine lock-free.
type exchangeNode struct {
	congest.Base
	v    int
	spec *ExchangeSpec
	r    *Received
}

func (x *exchangeNode) Init(nd *congest.Node) {
	sp := x.spec
	for _, u := range nd.Neighbors() {
		if sp.Sets != nil {
			for _, f := range sp.Sets[x.v] {
				x.send(nd, u, f)
			}
			continue
		}
		for f := 0; f < sp.Fields; f++ {
			x.send(nd, u, f)
		}
	}
}

func (x *exchangeNode) send(nd *congest.Node, u, f int) {
	if p, ok := x.spec.Value(x.v, f); ok {
		nd.SendTag(u, x.spec.Tag, int64(f), p.A, p.B)
	}
}

func (x *exchangeNode) Deliver(nd *congest.Node, d congest.Delivery) {
	if d.Msg.Tag != x.spec.Tag {
		return
	}
	r := x.r
	s := r.off[x.v] + slotOf(nd.Neighbors(), d.From)
	f := int(d.Msg.Words[0])
	p := Pair{A: d.Msg.Words[1], B: d.Msg.Words[2]}
	if r.rowOff == nil {
		r.dense[s*r.k+f] = p
		return
	}
	r.ents[r.end[s]] = Entry{Field: f, Pair: p}
	r.end[s]++
}

// slotOf returns the index of u in the sorted neighbour list, or -1.
func slotOf(nbrs []int, u int) int {
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbrs) && nbrs[lo] == u {
		return lo
	}
	return -1
}

// Slot returns the slot of neighbour u at node v, or -1 when u is not a
// communication neighbour of v.
func (r *Received) Slot(v, u int) int { return slotOf(r.nbrs[v], u) }

// Get returns what the neighbour in the given slot of v sent for field f,
// or (seq.Inf, -1) when it sent nothing for f.
func (r *Received) Get(v, slot, f int) Pair {
	s := r.off[v] + slot
	if r.rowOff == nil {
		return r.dense[s*r.k+f]
	}
	row := r.ents[r.rowOff[s]:r.end[s]]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].Field < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo].Field == f {
		return row[lo].Pair
	}
	return absent
}

// Row returns the k-wide table a dense exchange received in the given slot
// of v; entry f is field f, (seq.Inf, -1) when not received. The slice
// must not be modified.
func (r *Received) Row(v, slot int) []Pair {
	s := r.off[v] + slot
	return r.dense[s*r.k : (s+1)*r.k : (s+1)*r.k]
}

// Entries returns the records a field-set exchange received in the given
// slot of v, sorted by field. The slice must not be modified.
func (r *Received) Entries(v, slot int) []Entry {
	s := r.off[v] + slot
	return r.ents[r.rowOff[s]:r.end[s]:r.end[s]]
}

// NonTreeScan is the cycle-candidate extraction over non-tree edges shared
// by the girth approximations, the long-cycle pass of wmwc and the exact
// algorithms. At node x, for each arc (x,y) and field f, the candidate is
// d(f,x) + len(x,y) + d(f,y), where d(f,y) and y's predecessor arrive
// through the exchange (Pair A = distance, B = predecessor). Edges of f's
// shortest-path tree (x's predecessor is y, or y's is x) are skipped, as
// are PredUnknown entries: only a non-tree edge makes the closed walk
// contain a cycle.
type NonTreeScan struct {
	Res  *MultiBFSResult // x's own distances and predecessors
	Recv *Received       // the neighbours' (distance, predecessor) records
	// Length is the closing edge's length; nil means the arc weight.
	Length func(a graph.Arc) int64
	// Fields, when set, lists the fields scanned at each node in scan
	// order, and the fields are source vertices (an all-sources run): a
	// source equal to x or y is skipped. Nil scans every field of a dense
	// exchange.
	Fields [][]int
}

// Scan lowers best[x] to each improving candidate at x, visiting arcs in
// g.Out order and fields in scan order, and reports every improvement as
// found(x, y, f).
func (s NonTreeScan) Scan(g *graph.Graph, best []int64, found func(x, y, f int)) {
	for x := 0; x < g.N(); x++ {
		dist, pred := s.Res.Dist[x], s.Res.Pred[x]
		for _, a := range g.Out(x) {
			y := a.To
			al := a.Weight
			if s.Length != nil {
				al = s.Length(a)
			}
			slot := s.Recv.Slot(x, y)
			if s.Fields == nil {
				for f, e := range s.Recv.Row(x, slot) {
					if c, ok := nonTree(dist[f], pred[f], e, al, x, y); ok && c < best[x] {
						best[x] = c
						found(x, y, f)
					}
				}
				continue
			}
			for _, f := range s.Fields[x] {
				if f == x || f == y {
					continue
				}
				e := s.Recv.Get(x, slot, f)
				if c, ok := nonTree(dist[f], pred[f], e, al, x, y); ok && c < best[x] {
					best[x] = c
					found(x, y, f)
				}
			}
		}
	}
}

// ClosingArcScan is the directed cycle-candidate extraction shared by the
// exact algorithms and the sampled cycles of dirmwc. Dist is a Forward
// run's table, so Dist[u][f] is d(f's source, u). At node u, each out-arc
// (u,v) whose head is the source of field Field(v) closes the candidate
// len(u,v) + d(v,u): a shortest v -> u path is simple and cannot use
// (u,v), so every candidate is a simple cycle.
type ClosingArcScan struct {
	Dist [][]int64
	// Field returns the field whose source is v, or -1 for none.
	Field func(v int) int
	// Length is the closing arc's length; nil means the arc weight.
	Length func(a graph.Arc) int64
}

// Scan lowers best[u] to each improving candidate at u, visiting arcs in
// g.Out order, and reports every improvement as found(u, v, f).
func (s ClosingArcScan) Scan(g *graph.Graph, best []int64, found func(u, v, f int)) {
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Out(u) {
			f := s.Field(a.To)
			if f < 0 || s.Dist[u][f] >= seq.Inf {
				continue
			}
			al := a.Weight
			if s.Length != nil {
				al = s.Length(a)
			}
			if c := al + s.Dist[u][f]; c < best[u] {
				best[u] = c
				found(u, a.To, f)
			}
		}
	}
}

// nonTree returns the candidate closed by edge (x,y) of length al, given
// x's distance and predecessor and y's record, unless a distance is
// unknown or the edge is (or may be) a tree edge.
func nonTree(dx int64, px int32, e Pair, al int64, x, y int) (int64, bool) {
	if dx >= seq.Inf || e.A >= seq.Inf {
		return 0, false
	}
	if px == PredUnknown || e.B == int64(PredUnknown) || int(px) == y || e.B == int64(x) {
		return 0, false
	}
	return dx + al + e.A, true
}

// TopSigmaSets returns, for each node, the fields of its sigma
// lexicographically smallest finite (dist, field) pairs, in that order:
// the neighbourhood a TopSigma run establishes.
func TopSigmaSets(res *MultiBFSResult, sigma int) [][]int {
	type pr struct {
		d int64
		f int
	}
	out := make([][]int, len(res.Dist))
	var prs []pr
	for v, row := range res.Dist {
		prs = prs[:0]
		for f, d := range row {
			if d < seq.Inf {
				prs = append(prs, pr{d, f})
			}
		}
		slices.SortFunc(prs, func(a, b pr) int {
			if a.d != b.d {
				if a.d < b.d {
					return -1
				}
				return 1
			}
			return a.f - b.f
		})
		if len(prs) > sigma {
			prs = prs[:sigma]
		}
		fields := make([]int, len(prs))
		for i, p := range prs {
			fields[i] = p.f
		}
		out[v] = fields
	}
	return out
}

// ExchangeDistPred sends a run's (distance, predecessor) records to every
// neighbour under tag: every finite field when sets is nil (dense rows over
// the run's fields), else exactly node v's fields sets[v] (field-set rows).
func ExchangeDistPred(net *congest.Network, res *MultiBFSResult, tag int64, sets [][]int) (*Received, error) {
	k := 0
	if len(res.Dist) > 0 {
		k = len(res.Dist[0])
	}
	return Exchange(net, ExchangeSpec{
		Tag: tag, Fields: k, Sets: sets,
		Value: func(v, f int) (Pair, bool) {
			d := res.Dist[v][f]
			return Pair{A: d, B: int64(res.Pred[v][f])}, sets != nil || d < seq.Inf
		},
	})
}
