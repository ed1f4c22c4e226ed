package cluster

import (
	"math"

	"congestmwc/internal/jobs"
)

// Model is the calibrated cost estimator behind the router's QoS
// admission: it predicts a job's simulated CONGEST rounds and delivered
// messages from the admission-time Info alone (algorithm, class, n, m and
// the largest edge weight), before anything runs.
//
// The shapes follow the algorithms' complexity bounds and the constants
// are fitted against the repo's own measurements in bench/csr_hotpath.json:
//
//   - exact (APSP baseline): O(n) rounds, O(n·m) messages. Measured
//     dense_apsp (n=64, m=806): 72 rounds, 108 026 messages; the model
//     gives 75 and 108 326.
//   - approx on weighted classes: O~(√n·log W) round factor on top of the
//     hop-bounded BFS layers. Measured wmwc_approx (n=40, m=78, W=1024):
//     22 134 rounds, 315 741 messages; the model gives 22 785 and 320 768.
//   - approx on unweighted classes: no log W blow-up; a coarse √n·log n
//     shape (no bench case pins it, so the constants are conservative).
//
// Estimates are admission weights, not predictions of wall clock: being
// within ~1.5× on the benched cases is enough for fair queueing, and the
// monotonicity properties (cost grows with n, m and W) are what the tests
// pin hardest.
type Model struct{}

var _ jobs.Estimator = Model{}

// Estimate predicts the job's simulation cost.
func (Model) Estimate(in jobs.Info) jobs.CostEstimate {
	n := float64(in.N)
	m := float64(in.M)
	if n < 1 {
		n = 1
	}
	if m < 1 {
		m = 1
	}
	sqrtN := math.Sqrt(n)
	// log2(W+2) so unweighted (W=1) and tiny weights still cost a full
	// factor >= 1 instead of collapsing to zero.
	logW := math.Log2(float64(in.MaxW) + 2)

	var rounds, messages float64
	switch {
	case in.Algo == jobs.AlgoExact:
		// The APSP baseline's rounds track n regardless of weights; its
		// message volume is the n simultaneous SSSP-like floods over m edges.
		rounds = 1.1*n + 5
		messages = 2.1 * n * m
	case in.Weighted():
		// Scaled BFS layers: the √n hop bound times the weight-binary-search
		// depth, per source batch.
		rounds = 9 * n * sqrtN * logW
		messages = 65 * m * sqrtN * logW
	default:
		rounds = 20*sqrtN*math.Log2(n+2) + 50
		messages = 8 * m * sqrtN
	}
	return jobs.CostEstimate{
		Rounds:   rounds,
		Messages: messages,
		Cost:     rounds + messages,
	}
}
