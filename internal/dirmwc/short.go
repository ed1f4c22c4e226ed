package dirmwc

import (
	"math"
	"math/rand"
	"sort"

	"congestmwc/internal/congest"
	"congestmwc/internal/cyclewit"
	"congestmwc/internal/graph"
	"congestmwc/internal/proto"
	"congestmwc/internal/seq"
)

const (
	tagVectors int64 = 201 // neighbour exchange of d(.,s) vectors
	tagRBFS    int64 = 202 // restricted BFS message
)

type shortSpec struct {
	s            []int
	dSS          [][]int64 // dSS[i][j] = d(S[i] -> S[j])
	distF, distB [][]int64 // distF[v][j] = d(S[j] -> v), distB[v][j] = d(v -> S[j])
	mu           []int64
	wit          []dwit // witness bookkeeping, parallel to mu
	hShort       int64
	distBound    int64
	rho          int
	cap          int
	length       func(a graph.Arc) int64
	salt         int64
}

// satAdd adds distances with saturation at seq.Inf.
func satAdd(a, b int64) int64 {
	if a >= seq.Inf || b >= seq.Inf {
		return seq.Inf
	}
	return a + b
}

// buildR constructs R(v) for every vertex by the halving construction of
// Algorithm 3 lines 3-8: S is partitioned into beta = ceil(log2 n) groups;
// from each group one random not-yet-covered vertex joins R(v). Entirely
// local: uses only broadcast S x S distances and v's own d(v, .) vector.
func buildR(n int, sp *shortSpec, seed int64) [][]int32 {
	beta := int(math.Ceil(math.Log2(float64(n) + 2)))
	// Shared-randomness shuffle, identical at every node.
	perm := rand.New(rand.NewSource(seed*31 + sp.salt)).Perm(len(sp.s))
	groups := make([][]int, beta)
	for i, p := range perm {
		groups[i%beta] = append(groups[i%beta], p)
	}
	rs := make([][]int32, n)
	rng := rand.New(rand.NewSource(0))
	for v := 0; v < n; v++ {
		// Re-seeding draws exactly what a fresh source would, without
		// allocating one per node.
		rng.Seed(seed*1_000_003 + int64(v) + sp.salt*7)
		var r []int32
		// covered(s, t): the line-7 condition d(s,t) + 2d(v,s) <=
		// d(t,s) + 2d(v,t) FAILING for some t in R(v) means s is covered.
		inT := func(si int) bool {
			for _, ti := range r {
				lhs := satAdd(sp.dSS[si][ti], 2*minInf(sp.distB[v][si]))
				rhs := satAdd(sp.dSS[ti][si], 2*minInf(sp.distB[v][ti]))
				if lhs > rhs {
					return false
				}
			}
			return true
		}
		for i := 0; i < beta; i++ {
			var t []int
			for _, si := range groups[i] {
				if inT(si) {
					t = append(t, si)
				}
			}
			if len(t) > 0 {
				r = append(r, int32(t[rng.Intn(len(t))]))
			}
		}
		sort.Slice(r, func(a, b int) bool { return r[a] < r[b] })
		rs[v] = r
	}
	return rs
}

func minInf(d int64) int64 {
	if d >= seq.Inf {
		return seq.Inf
	}
	return d
}

// exchangeVectors sends every node's (d(v -> s), d(s -> v)) vectors to each
// neighbour in O(|S|) pipelined rounds. Field j of a neighbour's row is the
// pair (distB, distF) of that neighbour for S[j].
func exchangeVectors(net *congest.Network, sp *shortSpec) (*proto.Received, error) {
	return proto.Exchange(net, proto.ExchangeSpec{
		Tag: tagVectors, Fields: len(sp.s),
		Value: func(v, j int) (proto.Pair, bool) {
			return proto.Pair{A: sp.distB[v][j], B: sp.distF[v][j]}, true
		},
	})
}

// rbfsState is the per-node state of the restricted BFS (lines 13-22).
type rbfsState struct {
	congest.Base
	v     int
	sp    *shortSpec
	g     *graph.Graph
	rOf   []int32         // R(v) sample indices
	dT    []int64         // d(v, t) for t in R(v)
	nbr   *proto.Received // the neighbours' (distB, distF) rows
	start int             // wake round for originating own BFS

	best      map[int32]int64
	srcPred   map[int32]int32 // predecessor toward the source (witnesses)
	z         *bool           // overflow flag, shared with orchestrator
	lastRound int
	newCnt    int
	rbuf      []int32 // scratch: R(src) parsed from a delivered Q(src)
	words     []int64 // scratch payload of the node's RBFS sends
}

// member tests u in P(y) (line 22): for every t in R(y),
// d(u,t) + 2 d*(y,u) <= d(t,u) + 2 d(y,t), with saturating arithmetic so
// that unknown (beyond-bound) distances err toward inclusion except when
// the left side is known-infinite and the right side finite.
func (st *rbfsState) member(u int, r []int32, dyT []int64, dStar int64) bool {
	slot := st.nbr.Slot(st.v, u)
	if slot < 0 {
		return false
	}
	row := st.nbr.Row(st.v, slot)
	for i, t := range r {
		lhs := satAdd(row[t].A, 2*dStar)
		rhs := satAdd(row[t].B, 2*dyT[i])
		if lhs > rhs {
			return false
		}
	}
	return true
}

func (st *rbfsState) forward(nd *congest.Node, src int32, d int64, r []int32, dyT []int64) {
	for _, a := range nd.Out() {
		l := st.sp.length(a)
		if l < 1 {
			l = 1
		}
		dStar := d + l
		if dStar > st.sp.hShort {
			continue
		}
		if int64(a.To) == int64(src) {
			continue // the cycle is recorded at this node, not re-sent
		}
		if !st.member(a.To, r, dyT, dStar) {
			continue
		}
		// Send copies the payload, so one scratch buffer serves every send.
		words := append(st.words[:0], int64(src), dStar, int64(len(r)))
		for _, t := range r {
			words = append(words, int64(t))
		}
		words = append(words, dyT...)
		st.words = words
		nd.Send(a.To, congest.Msg{Tag: tagRBFS, Words: words})
	}
}

func (st *rbfsState) Init(nd *congest.Node) {
	delta := 1 + nd.Rand().Intn(st.sp.rho)
	st.start = nd.Round() + delta
	nd.WakeAt(st.start)
}

func (st *rbfsState) Tick(nd *congest.Node) {
	if *st.z || nd.Round() != st.start {
		return
	}
	// Originate this node's restricted BFS.
	st.forward(nd, int32(st.v), 0, st.rOf, st.dT)
}

func (st *rbfsState) Deliver(nd *congest.Node, d congest.Delivery) {
	if *st.z || d.Msg.Tag != tagRBFS {
		return
	}
	w := d.Msg.Words
	src := int32(w[0])
	dist := w[1]
	nr := int(w[2])
	if nd.Round() != st.lastRound {
		st.lastRound = nd.Round()
		st.newCnt = 0
	}
	old, seen := st.best[src]
	if !seen {
		st.newCnt++
		if st.newCnt > st.sp.cap {
			// Phase-overflow vertex (line 19/21): terminate.
			*st.z = true
			st.best, st.srcPred = nil, nil
			return
		}
	}
	if seen && dist >= old {
		return
	}
	// Q(src) is used only to forward within this handler: parse it into
	// the node's scratch.
	r := st.rbuf[:0]
	for i := 0; i < nr; i++ {
		r = append(r, int32(w[3+i]))
	}
	st.rbuf = r
	dyT := w[3+nr : 3+2*nr]
	st.best[src] = dist
	st.srcPred[src] = int32(d.From)
	// Close a cycle if this node has an arc back to the source (line 26).
	for _, a := range nd.Out() {
		if int32(a.To) == src {
			l := st.sp.length(a)
			if l < 1 {
				l = 1
			}
			if c := dist + l; c < st.sp.mu[st.v] {
				st.sp.mu[st.v] = c
				st.sp.wit[st.v] = dwit{kind: witRBFS, src: src}
			}
		}
	}
	st.forward(nd, src, dist, r, dyT)
}

// shortCycles runs Algorithm 3. It updates sp.mu and sp.wit in place and
// returns the number of phase-overflow vertices together with a witness
// builder for the RBFS and overflow candidate kinds.
func shortCycles(net *congest.Network, sp shortSpec) (int, *shortWitnesses, error) {
	g := net.Graph()
	n := g.N()
	rs := buildR(n, &sp, net.Options().Seed)

	nbr, err := exchangeVectors(net, &sp)
	if err != nil {
		return 0, nil, err
	}

	zFlags := make([]bool, n)
	progs := make([]congest.Program, n)
	for v := 0; v < n; v++ {
		dT := make([]int64, len(rs[v]))
		for i, t := range rs[v] {
			dT[i] = sp.distB[v][t]
		}
		progs[v] = &rbfsState{
			v: v, sp: &sp, g: g, rOf: rs[v], dT: dT, nbr: nbr,
			best: make(map[int32]int64), srcPred: make(map[int32]int32),
			z: &zFlags[v], lastRound: -1,
		}
	}
	states := make([]*rbfsState, n)
	for v := 0; v < n; v++ {
		st, _ := progs[v].(*rbfsState)
		states[v] = st
	}
	if _, err := net.Run(progs, 0); err != nil {
		return 0, nil, err
	}

	// Broadcast the overflow set Z and BFS from it (line 24).
	tree, err := proto.BuildTree(net, 0)
	if err != nil {
		return 0, nil, err
	}
	values := make([][][]int64, n)
	for v := 0; v < n; v++ {
		if zFlags[v] {
			values[v] = [][]int64{{int64(v)}}
		}
	}
	recs, err := proto.Broadcast(net, tree, values)
	if err != nil {
		return 0, nil, err
	}
	var zs []int
	for _, rec := range recs[0] {
		zs = append(zs, int(rec[0]))
	}
	sort.Ints(zs)
	wits := &shortWitnesses{states: states, zs: zs}
	if len(zs) > 0 {
		resZ, err := proto.RunMultiBFS(net, proto.MultiBFSSpec{
			Sources: zs, Dir: proto.Forward, Bound: sp.hShort, Length: sp.length, Stretch: true,
		})
		if err != nil {
			return 0, nil, err
		}
		wits.resZ = resZ
		zIdx := make(map[int]int, len(zs))
		for j, z := range zs {
			zIdx[z] = j
		}
		for x := 0; x < n; x++ {
			for _, a := range g.Out(x) {
				j, ok := zIdx[a.To]
				if !ok {
					continue
				}
				if d := resZ.Dist[x][j]; d < seq.Inf {
					l := sp.length(a)
					if l < 1 {
						l = 1
					}
					if c := d + l; c < sp.mu[x] {
						sp.mu[x] = c
						sp.wit[x] = dwit{kind: witOverflow, src: int32(j)}
					}
				}
			}
		}
	}
	return len(zs), wits, nil
}

// shortWitnesses reconstructs Algorithm 3 witnesses after the fact.
type shortWitnesses struct {
	states []*rbfsState
	zs     []int
	resZ   *proto.MultiBFSResult
}

// rbfsCycle rebuilds the cycle recorded at node v for restricted-BFS
// source src: the predecessor chain src ... v plus the closing arc (v,src).
func (sw *shortWitnesses) rbfsCycle(src, v int) []int {
	return cyclewit.Chain(len(sw.states), func(u int) int {
		st := sw.states[u]
		if st == nil || st.srcPred == nil {
			return -1
		}
		p, ok := st.srcPred[int32(src)]
		if !ok {
			return -1
		}
		return int(p)
	}, src, v)
}

// overflowCycle rebuilds the cycle recorded at node x through overflow
// vertex sw.zs[j]: the tree path z ... x plus the closing arc (x,z).
func (sw *shortWitnesses) overflowCycle(j, x int) []int {
	if sw.resZ == nil || j < 0 || j >= len(sw.zs) {
		return nil
	}
	return cyclewit.PredPath(sw.resZ, j, sw.zs[j], x)
}
