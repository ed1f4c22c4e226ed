package congestmwc_test

import (
	"testing"

	"congestmwc"
	"congestmwc/internal/check"
)

// BenchmarkPortfolio runs every registered portfolio algorithm on the
// message-bound profile of check.PortfolioProfile — one sub-benchmark per
// algorithm, matching the case names of bench/portfolio_baseline.json. The
// seed is fixed, so rounds/op and messages/op are bit-deterministic run to
// run. It lives in the external test package because internal/check
// imports congestmwc.
func BenchmarkPortfolio(b *testing.B) {
	cases, err := check.PortfolioProfile()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range cases {
		b.Run(tc.Name, func(b *testing.B) {
			totalRounds, totalMsgs := 0, 0
			for i := 0; i < b.N; i++ {
				res, err := congestmwc.RunAlgorithm(tc.Name, tc.Graph, tc.Opts)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Found {
					b.Fatalf("%s found no cycle on the dense profile", tc.Name)
				}
				totalRounds += res.Rounds
				totalMsgs += res.Messages
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(totalMsgs)/float64(b.N), "messages/op")
		})
	}
}
