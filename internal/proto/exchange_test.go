package proto

import (
	"math/rand"
	"slices"
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/gen"
	"congestmwc/internal/seq"
)

// exchangeRef is the map-based reference of one exchange: ref[key] is what
// node v received from neighbour u for field f.
type exchangeRef map[[3]int]Pair

// Property: on random graphs of every class (directed ones exchange over
// the communication graph), both modes and both engines, every (node,
// neighbour, field) lookup agrees with a map-based reference, fields never
// sent read as (seq.Inf, -1), and the run costs one message per sent record
// per link and as many rounds as the longest per-link queue.
func TestExchangeMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		for _, class := range []struct{ directed, weighted bool }{
			{false, false}, {true, false}, {false, true}, {true, true},
		} {
			for _, fieldSets := range []bool{false, true} {
				rng := rand.New(rand.NewSource(seed))
				n := 4 + rng.Intn(24)
				g, err := (gen.Random{N: n, P: 0.2, Directed: class.directed,
					Weighted: class.weighted, MaxW: 9, Seed: seed}).Graph()
				if err != nil {
					t.Fatal(err)
				}
				net, err := congest.NewNetwork(g, congest.Options{Seed: seed, Parallel: seed%2 == 0, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				k := 1 + rng.Intn(2*n)
				payload := make([][]Pair, n)
				sent := make([][]bool, n) // sent[u][f]: u offers field f
				for u := range payload {
					payload[u] = make([]Pair, k)
					sent[u] = make([]bool, k)
					for f := range payload[u] {
						payload[u][f] = Pair{A: rng.Int63n(1000), B: int64(rng.Intn(n))}
						sent[u][f] = rng.Intn(3) > 0
					}
				}
				spec := ExchangeSpec{
					Tag: 77, Fields: k,
					Value: func(v, f int) (Pair, bool) { return payload[v][f], sent[v][f] },
				}
				if fieldSets {
					// Field sets in a random order, all sent.
					spec.Sets = make([][]int, n)
					for u := range spec.Sets {
						for _, f := range rng.Perm(k) {
							if sent[u][f] {
								spec.Sets[u] = append(spec.Sets[u], f)
							}
						}
					}
				}
				ref := exchangeRef{}
				perLink := make([]int, n) // records u sends on each of its links
				for u := 0; u < n; u++ {
					for f := 0; f < k; f++ {
						if sent[u][f] {
							perLink[u]++
							for _, a := range g.Comm(u) {
								ref[[3]int{a.To, u, f}] = payload[u][f]
							}
						}
					}
				}
				before := net.Stats()
				recv, err := Exchange(net, spec)
				if err != nil {
					t.Fatal(err)
				}
				after := net.Stats()
				wantMsgs, wantRounds := 0, 0
				for u := 0; u < n; u++ {
					wantMsgs += perLink[u] * len(net.Neighbors(u))
					wantRounds = max(wantRounds, perLink[u])
				}
				if got := after.Messages - before.Messages; got != wantMsgs {
					t.Errorf("seed %d %+v sets=%v: %d messages, want %d", seed, class, fieldSets, got, wantMsgs)
				}
				if got := after.Rounds - before.Rounds; got != wantRounds {
					t.Errorf("seed %d %+v sets=%v: %d rounds, want %d", seed, class, fieldSets, got, wantRounds)
				}
				for v := 0; v < n; v++ {
					if recv.Slot(v, v) != -1 {
						t.Errorf("node %d: Slot(self) = %d, want -1", v, recv.Slot(v, v))
					}
					for _, a := range g.Comm(v) {
						u := a.To
						slot := recv.Slot(v, u)
						if slot < 0 || net.Neighbors(v)[slot] != u {
							t.Fatalf("seed %d: node %d: Slot(%d) = %d", seed, v, u, slot)
						}
						var fields []int
						for f := 0; f < k; f++ {
							want, ok := ref[[3]int{v, u, f}]
							if !ok {
								want = Pair{A: seq.Inf, B: -1}
							} else {
								fields = append(fields, f)
							}
							if got := recv.Get(v, slot, f); got != want {
								t.Fatalf("seed %d sets=%v: node %d from %d field %d: Get = %+v, want %+v",
									seed, fieldSets, v, u, f, got, want)
							}
							if !fieldSets && recv.Row(v, slot)[f] != want {
								t.Fatalf("seed %d: node %d from %d field %d: Row = %+v, want %+v",
									seed, v, u, f, recv.Row(v, slot)[f], want)
							}
						}
						if fieldSets {
							var got []int
							for _, e := range recv.Entries(v, slot) {
								got = append(got, e.Field)
							}
							if !slices.Equal(got, fields) {
								t.Fatalf("seed %d: node %d from %d: entry fields %v, want sorted %v", seed, v, u, got, fields)
							}
						}
					}
				}
			}
		}
	}
}

// Property: NonTreeScan finds exactly the candidates of the direct
// non-tree-edge loop over the sender's own distance and predecessor
// vectors, in both modes, with the same first-improvement witnesses.
func TestNonTreeScanMatchesDirectLoop(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g, err := (gen.Random{N: 12 + int(seed), P: 0.25, Weighted: seed%2 == 0, MaxW: 6, Seed: seed}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		net := newNet(t, g)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		res, err := RunMultiBFS(net, MultiBFSSpec{Sources: all, Dir: Undirected, Bound: int64(seed%4) + 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, sets := range [][][]int{nil, TopSigmaSets(res, 4)} {
			recv, err := ExchangeDistPred(net, res, 9, sets)
			if err != nil {
				t.Fatal(err)
			}
			best := make([]int64, n)
			wantBest := make([]int64, n)
			for i := range best {
				best[i], wantBest[i] = seq.Inf, seq.Inf
			}
			type hit struct{ x, y, f int }
			var got, want []hit
			NonTreeScan{Res: res, Recv: recv, Fields: sets}.Scan(g, best, func(x, y, f int) {
				got = append(got, hit{x, y, f})
			})
			for x := 0; x < n; x++ {
				for _, a := range g.Out(x) {
					y := a.To
					fields := all
					if sets != nil {
						fields = sets[x]
					}
					for _, f := range fields {
						if sets != nil && (f == x || f == y) {
							continue
						}
						inSet := sets == nil || slices.Contains(sets[y], f)
						dx, dy := res.Dist[x][f], res.Dist[y][f]
						if !inSet || dx >= seq.Inf || dy >= seq.Inf {
							continue
						}
						if int(res.Pred[x][f]) == y || int(res.Pred[y][f]) == x {
							continue
						}
						if c := dx + a.Weight + dy; c < wantBest[x] {
							wantBest[x] = c
							want = append(want, hit{x, y, f})
						}
					}
				}
			}
			if !slices.Equal(best, wantBest) || !slices.Equal(got, want) {
				t.Fatalf("seed %d sets=%v: scan best %v hits %v, want %v hits %v", seed, sets != nil, best, got, wantBest, want)
			}
		}
	}
}
