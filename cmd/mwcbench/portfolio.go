package main

// The portfolio profile (check.PortfolioProfile): one case per registered
// algorithm on a message-bound instance (dense random graph, n=96, p=0.15),
// emitted in the bench/ baseline JSON schema. The committed
// bench/portfolio_baseline.json is this command's output; the root
// BenchmarkPortfolio go-test benchmark runs the same profile definition, so
// its rounds/op and messages/op figures are bit-identical to the baseline
// and scripts/benchgate.go gates them exactly, while ns_per_op is gated
// with a wall-clock tolerance.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"congestmwc"
	"congestmwc/internal/check"
)

// writePortfolioJSON runs every registered portfolio algorithm on the
// message-bound profile and emits the bench/ baseline schema.
func writePortfolioJSON(w *os.File, args []string, reps int) error {
	rep := benchReport{
		Benchmark: "BenchmarkPortfolio",
		Recorded:  time.Now().UTC().Format("2006-01-02"),
		Purpose: "Algorithm portfolio on the message-bound profile (dense random, n=96, p=0.15): one case per registered algorithm. " +
			"rounds_per_op and messages_per_op are deterministic (fixed seeds) and gated exactly by scripts/benchgate.go; " +
			"ns_per_op is gated with a wall-clock tolerance. Regenerate with `mwcbench -portfolio -json`.",
		Environment: benchEnvironment{
			Goos:      runtime.GOOS,
			Goarch:    runtime.GOARCH,
			CPU:       cpuModel(),
			Benchtime: fmt.Sprintf("%dx", reps),
			Command:   "mwcbench " + strings.Join(args, " "),
		},
	}
	cases, err := check.PortfolioProfile()
	if err != nil {
		return err
	}
	for _, tc := range cases {
		var rounds, msgs float64
		start := time.Now()
		for r := 0; r < reps; r++ {
			res, err := congestmwc.RunAlgorithm(tc.Name, tc.Graph, tc.Opts)
			if err != nil {
				return fmt.Errorf("portfolio %s: %w", tc.Name, err)
			}
			if !res.Found {
				return fmt.Errorf("portfolio %s: no cycle found on the dense profile", tc.Name)
			}
			rounds += float64(res.Rounds)
			msgs += float64(res.Messages)
		}
		elapsed := time.Since(start)
		rep.Cases = append(rep.Cases, benchCase{
			Name:          tc.Name,
			Workload:      tc.Workload,
			RoundsPerOp:   rounds / float64(reps),
			MessagesPerOp: msgs / float64(reps),
			NsPerOp:       float64(elapsed.Nanoseconds()) / float64(reps),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
