package congestmwc

// Benchmarks regenerating Table 1 of the paper, one per row (experiment IDs
// from DESIGN.md). CONGEST cost is reported via custom metrics:
// "rounds/op" is the synchronous-round count — the quantity the paper
// bounds — and "ratio" the worst observed approximation factor. Wall-clock
// ns/op measures only the simulator, not the algorithm's model cost.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Larger sweeps with exponent fits: cmd/mwcbench.

import (
	"fmt"
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/dirmwc"
	"congestmwc/internal/exact"
	"congestmwc/internal/gen"
	"congestmwc/internal/girth"
	"congestmwc/internal/harness"
	"congestmwc/internal/ksssp"
	"congestmwc/internal/lb"
	"congestmwc/internal/proto"
	"congestmwc/internal/wmwc"
)

// benchUpper runs one upper-bound experiment at a fixed size.
func benchUpper(b *testing.B, id harness.Experiment, n int) {
	b.Helper()
	ub, ok := harness.UpperBounds()[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	totalRounds, totalWords, peakLink := 0, 0, 0
	worst := 0.0
	for i := 0; i < b.N; i++ {
		res, err := ub.Run(n, int64(i)*37+1)
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += res.Rounds
		totalWords += res.Words
		if res.PeakLinkWords > peakLink {
			peakLink = res.PeakLinkWords
		}
		if res.Ratio > worst {
			worst = res.Ratio
		}
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(totalWords)/float64(b.N), "words/op")
	b.ReportMetric(float64(peakLink), "peak-link-words")
	b.ReportMetric(worst, "worst-ratio")
}

// --- Table 1, directed MWC rows ---

func BenchmarkT1DirectedExact(b *testing.B)   { benchUpper(b, harness.ExpDirectedExact, 192) }
func BenchmarkT1Directed2Approx(b *testing.B) { benchUpper(b, harness.ExpDirected2Approx, 128) }
func BenchmarkT1DirectedWeighted2Approx(b *testing.B) {
	benchUpper(b, harness.ExpDirectedW2Approx, 96)
}

// --- Table 1, undirected weighted MWC rows ---

func BenchmarkT1UndirWeightedExact(b *testing.B) { benchUpper(b, harness.ExpUndirWExact, 192) }
func BenchmarkT1UndirWeighted2Approx(b *testing.B) {
	benchUpper(b, harness.ExpUndirW2Approx, 128)
}

// --- Table 1, girth rows ---

func BenchmarkT1GirthExact(b *testing.B)  { benchUpper(b, harness.ExpGirthExact, 256) }
func BenchmarkT1GirthApprox(b *testing.B) { benchUpper(b, harness.ExpGirthApprox, 256) }

// The [44] baseline our Theorem 1.3.B row improves on.
func BenchmarkT1GirthPRTBaseline(b *testing.B) { benchUpper(b, harness.ExpGirthPRT, 256) }

// --- Theorem 1.6, multi-source rows ---

func BenchmarkT6KSourceBFS(b *testing.B)  { benchUpper(b, harness.ExpKSourceBFS, 256) }
func BenchmarkT6KSourceSSSP(b *testing.B) { benchUpper(b, harness.ExpKSourceSSSP, 128) }

// --- Table 1, lower-bound rows: cut transcript of the exact algorithm on
// the reduction families (Bits/op is the disjointness size the instance
// encodes; cutwords/op the measured transcript). ---

func benchLower(b *testing.B, id harness.Experiment, scale int) {
	b.Helper()
	lbe, ok := harness.LowerBounds()[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cut, implied, bits, peak := 0, 0, 0, 0
	for i := 0; i < b.N; i++ {
		res, err := harness.RunLowerBound(lbe, scale, int64(i)*13+1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.GapOK || !res.DecisionOK {
			b.Fatalf("%s: gap or decision violated", id)
		}
		cut += res.CutWords
		implied += res.ImpliedRounds
		bits = res.Bits
		if res.PeakCutWords > peak {
			peak = res.PeakCutWords
		}
	}
	b.ReportMetric(float64(cut)/float64(b.N), "cutwords/op")
	b.ReportMetric(float64(implied)/float64(b.N), "implied-rounds/op")
	b.ReportMetric(float64(bits), "bits")
	b.ReportMetric(float64(peak), "peak-cut-words")
}

func BenchmarkT1DirectedLowerBound2Eps(b *testing.B)  { benchLower(b, harness.ExpDirectedLB2, 8) }
func BenchmarkT1DirectedLowerBoundAlpha(b *testing.B) { benchLower(b, harness.ExpDirectedLBA, 8) }
func BenchmarkT1UndirWeightedLowerBound(b *testing.B) { benchLower(b, harness.ExpUndirWLB2, 8) }
func BenchmarkT1GirthLowerBoundAlpha(b *testing.B)    { benchLower(b, harness.ExpGirthLBA, 6) }

// --- Scaling sweeps: the per-size round counts behind the exponent fits of
// EXPERIMENTS.md, as sub-benchmarks (go test -bench=Sweep). ---

func BenchmarkSweepGirthApprox(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchUpper(b, harness.ExpGirthApprox, n)
		})
	}
}

func BenchmarkSweepDirected2Approx(b *testing.B) {
	for _, n := range []int{48, 96, 192} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchUpper(b, harness.ExpDirected2Approx, n)
		})
	}
}

func BenchmarkSweepExactGirth(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchUpper(b, harness.ExpGirthExact, n)
		})
	}
}

func BenchmarkSweepLowerBoundCut(b *testing.B) {
	for _, scale := range []int{4, 8, 12, 16} {
		scale := scale
		b.Run(fmt.Sprintf("m=%d", scale), func(b *testing.B) {
			benchLower(b, harness.ExpDirectedLB2, scale)
		})
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// Ablation: the phase-overflow cleanup of Algorithm 3. A tight cap forces
// many overflow vertices; the cleanup BFS keeps the result correct at a
// round cost, which this benchmark makes visible.
func BenchmarkAblationOverflowCap(b *testing.B) {
	for _, cap := range []int{1, 8, 64} {
		cap := cap
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			rounds, overflow := 0, 0
			for i := 0; i < b.N; i++ {
				g, err := (gen.Random{N: 96, P: 4.0 / 96, Directed: true, Seed: int64(i)}).Graph()
				if err != nil {
					b.Fatal(err)
				}
				net, err := congest.NewNetwork(g, congest.Options{Seed: int64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := dirmwc.Run(net, dirmwc.Spec{Cap: cap, PaperSchedule: true})
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
				overflow += res.Overflow
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(overflow)/float64(b.N), "overflow/op")
		})
	}
}

// Ablation: sampling rate of the girth algorithm. More samples improve the
// chance of the near-2 candidates but cost rounds in the sampled BFS.
func BenchmarkAblationGirthSampling(b *testing.B) {
	for _, factor := range []float64{1, 3, 9} {
		factor := factor
		b.Run(fmt.Sprintf("factor=%v", factor), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				g, err := (gen.Random{N: 256, P: 4.0 / 256, Seed: int64(i)}).Graph()
				if err != nil {
					b.Fatal(err)
				}
				net, err := congest.NewNetwork(g, congest.Options{Seed: int64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := girth.Run(net, girth.Spec{SampleFactor: factor, PaperSchedule: true})
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// Ablation: Algorithm 1 against the one-BFS-per-source baseline of Theorem
// 1.6.A's k*SSSP branch.
func BenchmarkAblationKSourceVsSequential(b *testing.B) {
	const n, k = 192, 14
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i * n / k
	}
	run := func(b *testing.B, sequential bool) {
		rounds := 0
		for i := 0; i < b.N; i++ {
			g, err := (gen.Random{N: n, P: 4.0 / n, Directed: true, Seed: int64(i)}).Graph()
			if err != nil {
				b.Fatal(err)
			}
			net, err := congest.NewNetwork(g, congest.Options{Seed: int64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			var r *ksssp.Result
			if sequential {
				r, err = ksssp.RunSequential(net, ksssp.Spec{Sources: sources})
			} else {
				r, err = ksssp.Run(net, ksssp.Spec{Sources: sources})
			}
			if err != nil {
				b.Fatal(err)
			}
			rounds += r.Rounds
		}
		b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	}
	b.Run("algorithm1", func(b *testing.B) { run(b, false) })
	b.Run("sequential", func(b *testing.B) { run(b, true) })
}

// Ablation: simulator engine choice (results identical; wall-clock differs).
func BenchmarkAblationEngine(b *testing.B) {
	for _, parallel := range []bool{false, true} {
		parallel := parallel
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := (gen.Random{N: 256, P: 4.0 / 256, Seed: 3}).Graph()
				if err != nil {
					b.Fatal(err)
				}
				net, err := congest.NewNetwork(g, congest.Options{Seed: 5, Parallel: parallel})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := girth.Run(net, girth.Spec{PaperSchedule: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStretchedIdleRounds measures the event-driven scheduler on the
// workloads it exists for: the scaling/stretching reductions (Section 5),
// where round counts are Theta(stretched distances) and almost every round
// is empty. Each case runs once with round skipping (the default) and once
// with Options.Stepwise iteration; results and round counts are asserted
// identical, so the ns/op ratio between the sub-benchmarks is exactly the
// scheduler's win (wall clock per delivered message vs per elapsed round).
// Recorded in bench/stretched_idle.json, one case per workload/mode result;
// CI pipes its bench smoke through scripts/benchgate.go, so rounds/op and
// messages/op are gated exactly and ns/op with a wall-clock tolerance.
func BenchmarkStretchedIdleRounds(b *testing.B) {
	type result struct {
		rounds   int
		messages int
	}
	cases := []struct {
		name string
		run  func(b *testing.B, stepwise bool, seed int64) result
	}{
		{
			// High-weight scaled SSSP: on a heavy ring at tight accuracy the
			// stretched simulation is almost pure idle time — ~620k rounds
			// carry ~650 messages, so the single BFS wavefront sleeps through
			// long scaled edge traversals. Measured ~8x event-driven vs
			// stepwise (bench/stretched_idle.json; acceptance bar >=5x).
			name: "scaledsssp",
			run: func(b *testing.B, stepwise bool, seed int64) result {
				g := gen.Ring(96, false, true, 3500)
				net, err := congest.NewNetwork(g, congest.Options{Seed: seed, Stepwise: stepwise})
				if err != nil {
					b.Fatal(err)
				}
				res, err := proto.RunApproxHopSSSP(net, proto.ApproxHopSSSPSpec{
					Sources: []int{0}, H: 48, Eps: 0.001, Dir: proto.Undirected,
				})
				if err != nil {
					b.Fatal(err)
				}
				return result{rounds: res.Rounds, messages: net.Stats().Messages}
			},
		},
		{
			// Weighted MWC approximation on high weights: its short-cycle
			// levels run the same stretched substrate, but deliveries
			// dominate rounds, so this case guards the other side — the
			// event-driven scheduler must not slow message-bound workloads.
			name: "wmwc",
			run: func(b *testing.B, stepwise bool, seed int64) result {
				g, err := (gen.Random{N: 40, P: 5.0 / 40, Weighted: true,
					MaxW: 1024, Seed: 11}).Graph()
				if err != nil {
					b.Fatal(err)
				}
				net, err := congest.NewNetwork(g, congest.Options{Seed: seed, Stepwise: stepwise})
				if err != nil {
					b.Fatal(err)
				}
				// Every scaling level, as in the paper: the adaptive schedule
				// would skip most of the message-bound work this case measures.
				res, err := wmwc.Run(net, wmwc.Spec{Eps: 0.5, PaperSchedule: true})
				if err != nil {
					b.Fatal(err)
				}
				return result{rounds: res.Rounds, messages: net.Stats().Messages}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			want := tc.run(b, true, 1) // stepwise reference, also warms caches
			for _, mode := range []string{"event", "stepwise"} {
				mode := mode
				b.Run(mode, func(b *testing.B) {
					rounds, messages := 0, 0
					for i := 0; i < b.N; i++ {
						got := tc.run(b, mode == "stepwise", 1)
						if got != want {
							b.Fatalf("%s: %+v, want %+v (scheduler equivalence broken)", mode, got, want)
						}
						rounds += got.rounds
						messages += got.messages
					}
					b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
					b.ReportMetric(float64(messages)/float64(b.N), "messages/op")
				})
			}
		})
	}
}

// Microbenchmarks of the substrates.

func BenchmarkProtoMultiBFS(b *testing.B) {
	g, err := (gen.Random{N: 512, P: 4.0 / 512, Directed: true, Seed: 2}).Graph()
	if err != nil {
		b.Fatal(err)
	}
	sources := []int{0, 100, 200, 300, 400, 500}
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		net, err := congest.NewNetwork(g, congest.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := proto.RunMultiBFS(net, proto.MultiBFSSpec{Sources: sources, Dir: proto.Forward})
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

func BenchmarkLBInstanceConstruction(b *testing.B) {
	d := lb.RandomDisjointness(16*16, false, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.Directed2Eps(16, d); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the long/short hop threshold H of the directed 2-approximation
// — the round-complexity vs work-split tradeoff the paper's conclusion
// raises as an open tuning question. Larger H means fewer samples (cheaper
// long-cycle phase) but a wider restricted BFS.
func BenchmarkAblationHopThreshold(b *testing.B) {
	for _, h := range []int{8, 16, 32} {
		h := h
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				g, err := (gen.Random{N: 96, P: 4.0 / 96, Directed: true, Seed: int64(i)}).Graph()
				if err != nil {
					b.Fatal(err)
				}
				net, err := congest.NewNetwork(g, congest.Options{Seed: int64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := dirmwc.Run(net, dirmwc.Spec{H: h, PaperSchedule: true})
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// Ablation: link bandwidth. Rounds scale inversely with the per-round word
// budget; the asymptotic bounds assume Theta(log n) bits = O(1) words.
func BenchmarkAblationBandwidth(b *testing.B) {
	for _, bw := range []int{1, 4, 16} {
		bw := bw
		b.Run(fmt.Sprintf("B=%d", bw), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				g, err := (gen.Random{N: 256, P: 4.0 / 256, Seed: 3}).Graph()
				if err != nil {
					b.Fatal(err)
				}
				net, err := congest.NewNetwork(g, congest.Options{Seed: 5, Bandwidth: bw})
				if err != nil {
					b.Fatal(err)
				}
				res, err := girth.Run(net, girth.Spec{PaperSchedule: true})
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkCSRHotPath measures the per-message cost of the simulator's hot
// path — graph adjacency, transport delivery, handler dispatch — on the
// workload profiles the CSR/zero-alloc data layer targets:
//
//   - wmwc_msgbound: the weighted MWC approximation instance from
//     bench/stretched_idle.json, where deliveries (not idle rounds)
//     dominate wall clock; the refactor's primary acceptance case.
//   - scaledsssp_gapbound: the stretched/scaled SSSP instance dominated by
//     skipped empty rounds; guards that data-layer changes do not slow the
//     event-driven scheduler's win.
//   - dense_apsp: exact MWC via all-source BFS on a dense random graph —
//     maximum adjacency-scan and per-round fan-out pressure.
//   - girth_saturated: the served unweighted undirected approximation at
//     n=96, where the sample is all of V and phase 1 is the answer-bounded
//     all-sources BFS.
//
// Run with -benchmem: allocs/op is the number the pooled transport buffers
// exist to drive down. Baselines live in bench/csr_hotpath.json and are
// enforced by scripts/benchgate.go in CI.
func BenchmarkCSRHotPath(b *testing.B) {
	cases := []struct {
		name string
		run  func(b *testing.B, seed int64) (rounds, messages int)
	}{
		{
			name: "wmwc_msgbound",
			run: func(b *testing.B, seed int64) (int, int) {
				g, err := (gen.Random{N: 40, P: 5.0 / 40, Weighted: true,
					MaxW: 1024, Seed: 11}).Graph()
				if err != nil {
					b.Fatal(err)
				}
				net, err := congest.NewNetwork(g, congest.Options{Seed: seed})
				if err != nil {
					b.Fatal(err)
				}
				// Every scaling level, as in the paper: the adaptive schedule
				// would skip most of the message-bound work this case measures.
				res, err := wmwc.Run(net, wmwc.Spec{Eps: 0.5, PaperSchedule: true})
				if err != nil {
					b.Fatal(err)
				}
				return res.Rounds, net.Stats().Messages
			},
		},
		{
			name: "scaledsssp_gapbound",
			run: func(b *testing.B, seed int64) (int, int) {
				g := gen.Ring(96, false, true, 3500)
				net, err := congest.NewNetwork(g, congest.Options{Seed: seed})
				if err != nil {
					b.Fatal(err)
				}
				res, err := proto.RunApproxHopSSSP(net, proto.ApproxHopSSSPSpec{
					Sources: []int{0}, H: 48, Eps: 0.001, Dir: proto.Undirected,
				})
				if err != nil {
					b.Fatal(err)
				}
				return res.Rounds, net.Stats().Messages
			},
		},
		{
			name: "dense_apsp",
			run: func(b *testing.B, seed int64) (int, int) {
				g, err := (gen.Random{N: 64, P: 0.4, Seed: 7}).Graph()
				if err != nil {
					b.Fatal(err)
				}
				net, err := congest.NewNetwork(g, congest.Options{Seed: seed})
				if err != nil {
					b.Fatal(err)
				}
				res, err := exact.MWC(net, exact.Spec{})
				if err != nil {
					b.Fatal(err)
				}
				return res.Rounds, net.Stats().Messages
			},
		},
		{
			name: "girth_saturated",
			run: func(b *testing.B, seed int64) (int, int) {
				g, err := (gen.Random{N: 96, P: 4.0 / 96, Seed: 5}).Graph()
				if err != nil {
					b.Fatal(err)
				}
				net, err := congest.NewNetwork(g, congest.Options{Seed: seed})
				if err != nil {
					b.Fatal(err)
				}
				res, err := girth.Run(net, girth.Spec{})
				if err != nil {
					b.Fatal(err)
				}
				return res.Rounds, net.Stats().Messages
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			rounds, messages := 0, 0
			for i := 0; i < b.N; i++ {
				r, m := tc.run(b, 1)
				rounds += r
				messages += m
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(messages)/float64(b.N), "messages/op")
		})
	}
}
