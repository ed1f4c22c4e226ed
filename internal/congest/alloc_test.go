package congest

import (
	"testing"

	"congestmwc/internal/graph"
)

// pingPong bounces a fixed-size message back to its sender on every
// delivery, producing a permanent steady-state traffic pattern: the number
// of in-flight messages is constant, every link arena reaches its high-water
// mark within a few rounds, and from then on a round must not allocate.
type pingPong struct {
	Base
}

func (p *pingPong) Init(nd *Node) {
	if nd.ID() == 0 {
		for _, u := range nd.Neighbors() {
			nd.SendTag(u, 1, 7, 11, 13)
		}
	}
}

func (p *pingPong) Deliver(nd *Node, d Delivery) {
	w := d.Msg.Words
	nd.SendTag(d.From, d.Msg.Tag, w[0], w[1], w[2])
}

// newPingPongNet builds a ring network with ping-pong programs installed and
// the init phase executed, ready for runRound driving.
func newPingPongNet(tb testing.TB, n int, opts Options) *Network {
	tb.Helper()
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{From: i, To: (i + 1) % n}
	}
	g, err := graph.Build(n, edges, graph.Options{})
	if err != nil {
		tb.Fatalf("build ring: %v", err)
	}
	net, err := NewNetwork(g, opts)
	if err != nil {
		tb.Fatalf("new network: %v", err)
	}
	prog := &pingPong{}
	for _, st := range net.nodes {
		st.program = prog
	}
	net.eng.runHandlers(net, net.all, true)
	net.afterHandlers()
	return net
}

// TestTransportRoundZeroAlloc asserts the issue's zero-allocation goal: once
// arenas have warmed up, executing a round — transmit, handler execution,
// sends, pending-set merge — performs zero heap allocations.
func TestTransportRoundZeroAlloc(t *testing.T) {
	net := newPingPongNet(t, 16, Options{Seed: 1})
	for i := 0; i < 64; i++ { // warm up arenas to steady state
		net.runRound(net.now + 1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		net.runRound(net.now + 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state round allocates: %v allocs/round, want 0", allocs)
	}
}

// BenchmarkTransportRound measures the per-round cost of the transport and
// engine machinery alone (trivial handlers, constant traffic). Run with
// -benchmem: allocs/op must be 0. rounds/op and messages/op are the model
// cost of one steady-state round.
func BenchmarkTransportRound(b *testing.B) {
	net := newPingPongNet(b, 64, Options{Seed: 1})
	for i := 0; i < 64; i++ {
		net.runRound(net.now + 1)
	}
	b.ReportAllocs()
	before := net.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.runRound(net.now + 1)
	}
	b.StopTimer()
	after := net.Stats()
	b.ReportMetric(float64(after.Rounds-before.Rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(after.Messages-before.Messages)/float64(b.N), "messages/op")
}
