package congest

import (
	"fmt"
	"math/rand"

	"congestmwc/internal/graph"
)

// nodeState is the engine-side state of one node: its communication
// neighbourhood, inbox, lazily created PRNG and the per-round scratch the
// handlers fill in (wake-up requests, links first written to this round).
// The node's outgoing links live in the transport's flat link arena, in the
// contiguous ID range Network.linkOff[v]..Network.linkOff[v+1]; entry i of
// that range is the link to neighbors[i]. Handlers mutate only their own
// nodeState and their own outgoing links, which is what makes the parallel
// engine safe without locks.
type nodeState struct {
	neighbors []int // deduplicated, sorted communication neighbours
	inbox     []Delivery
	inWords   []int64    // arena backing the inbox's payload views, truncated with it
	rng       *rand.Rand // nil until the node's first Rand call
	wakes     []int      // wake-up rounds requested during handlers (drained post-handler)
	touched   []int32    // link IDs first written to during this round's handlers
	program   Program
	node      Node // reusable handle passed to handlers (avoids per-activation allocation)
}

// Node is the node-local view handed to Program handlers. It is only valid
// for the duration of the handler invocation.
type Node struct {
	net *Network
	id  int
	st  *nodeState
}

// ID returns this node's identifier in [0, N).
func (nd *Node) ID() int { return nd.id }

// N returns the number of nodes in the network (global knowledge in
// CONGEST).
func (nd *Node) N() int { return nd.net.g.N() }

// Directed reports whether the input graph is directed (global knowledge).
func (nd *Node) Directed() bool { return nd.net.g.Directed() }

// Round returns the current global round number.
func (nd *Node) Round() int { return nd.net.now }

// Bandwidth returns the per-link word bandwidth (global knowledge).
func (nd *Node) Bandwidth() int { return nd.net.opts.Bandwidth }

// SharedSeed returns the network seed, modelling the shared randomness that
// the paper's randomized constructions assume.
func (nd *Node) SharedSeed() int64 { return nd.net.opts.Seed }

// Out returns the arcs of the input graph leaving this node. The slice must
// not be modified.
func (nd *Node) Out() []graph.Arc { return nd.net.g.Out(nd.id) }

// In returns the arcs of the input graph entering this node. The slice must
// not be modified.
func (nd *Node) In() []graph.Arc { return nd.net.g.In(nd.id) }

// Comm returns the undirected communication adjacency of this node: one arc
// per incident input edge regardless of direction (for undirected graphs
// this equals Out). The slice must not be modified.
func (nd *Node) Comm() []graph.Arc { return nd.net.g.Comm(nd.id) }

// Neighbors returns the deduplicated, sorted communication neighbours. The
// slice must not be modified.
func (nd *Node) Neighbors() []int { return nd.st.neighbors }

// Rand returns the node's PRNG, seeded from Options.Seed and the node ID.
// It is created on the first call: most programs never draw, and seeding a
// source per node per network dominated small runs. Only the node's own
// handlers call it, so the parallel engine needs no lock.
func (nd *Node) Rand() *rand.Rand {
	if nd.st.rng == nil {
		nd.st.rng = rand.New(rand.NewSource(nd.net.opts.Seed*1_000_003 + int64(nd.id)))
	}
	return nd.st.rng
}

// linkTo returns the index of `to` in the node's sorted neighbor list, or
// -1. Binary search over the CSR neighbor row — no per-node lookup map.
func (nd *Node) linkTo(to int) int {
	nbrs := nd.st.neighbors
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid] < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbrs) && nbrs[lo] == to {
		return lo
	}
	return -1
}

// Send enqueues a message on the link to a communication neighbour.
// Transmission begins next round; a message of size s occupies the link for
// ceil(s/B) rounds. The payload is copied into the link's words arena, so
// the caller keeps ownership of m.Words (and stack-allocated payloads never
// escape). Send panics if `to` is not a neighbour — that is a programming
// error in an algorithm, not a runtime condition.
func (nd *Node) Send(to int, m Msg) {
	i := nd.linkTo(to)
	if i < 0 {
		panic(fmt.Sprintf("congest: node %d sending to non-neighbor %d", nd.id, to))
	}
	net := nd.net
	id := net.linkOff[nd.id] + int32(i)
	l := &net.tr.links[id]
	off := int32(len(l.words))
	l.words = append(l.words, m.Words...)
	l.queue = append(l.queue, qmsg{tag: m.Tag, off: off, n: int32(len(m.Words))})
	if !l.enqueued {
		l.enqueued = true
		nd.st.touched = append(nd.st.touched, id)
	}
}

// SendTag is Send with an inline message construction.
func (nd *Node) SendTag(to int, tag int64, words ...int64) {
	nd.Send(to, Msg{Tag: tag, Words: words})
}

// QueueLen returns the number of messages currently queued on the link to
// the given neighbour (node-local knowledge: a sender knows what it has
// handed to its own network interface).
func (nd *Node) QueueLen(to int) int {
	i := nd.linkTo(to)
	if i < 0 {
		return 0
	}
	l := &nd.net.tr.links[nd.net.linkOff[nd.id]+int32(i)]
	return len(l.queue) - l.head
}

// WakeAt schedules a Tick for this node at the given (strictly future)
// round even if no message arrives.
func (nd *Node) WakeAt(round int) {
	if round <= nd.net.now {
		round = nd.net.now + 1
	}
	nd.st.wakes = append(nd.st.wakes, round)
}

// WakeNext schedules a Tick for the next round.
func (nd *Node) WakeNext() { nd.WakeAt(nd.net.now + 1) }
