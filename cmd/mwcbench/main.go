// Command mwcbench regenerates the paper's Table 1, experiment by
// experiment (see DESIGN.md for the experiment index). For upper-bound rows
// it sweeps instance sizes, reports measured CONGEST rounds, the fitted
// round-complexity exponent against the claimed one, and the worst observed
// approximation ratio. For lower-bound rows it delegates to the same
// machinery as cmd/lbharness.
//
// With -json, upper-bound sweeps are emitted in the machine-readable schema
// used by the committed baselines under bench/ (see bench/stretched_idle.json
// and scripts/benchgate.go): an environment block plus one case per
// (experiment, size) with ns_per_op, rounds_per_op and messages_per_op.
// Lower-bound rows have no per-op cost semantics and are skipped in JSON
// mode.
//
// Examples:
//
//	mwcbench -list
//	mwcbench -exp T1-GIRTH-2APX -sizes 64,128,256,512 -reps 3
//	mwcbench -exp all -sizes 64,128,256 -reps 2
//	mwcbench -exp T1-GIRTH-2APX -sizes 64 -json > bench/girth_2apx.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"congestmwc/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mwcbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mwcbench", flag.ContinueOnError)
	var (
		expFlag   = fs.String("exp", "all", "experiment ID (see -list) or 'all'")
		sizesArg  = fs.String("sizes", "64,128,256", "comma-separated instance sizes")
		scales    = fs.String("scales", "4,6,8,12", "comma-separated lower-bound scales")
		reps      = fs.Int("reps", 2, "repetitions (seeds) per size")
		seed      = fs.Int64("seed", 1, "base seed")
		list      = fs.Bool("list", false, "list experiment IDs and exit")
		factor    = fs.Float64("factor", 0, "sampling constant override (0 = algorithm default)")
		jsonOut   = fs.Bool("json", false, "emit the bench/ baseline JSON schema instead of tables")
		portfolio = fs.Bool("portfolio", false, "run the algorithm-portfolio profile (one case per registered algorithm) instead of Table-1 experiments; requires -json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *portfolio {
		if !*jsonOut {
			return fmt.Errorf("-portfolio requires -json (it emits the bench/ baseline schema)")
		}
		return writePortfolioJSON(os.Stdout, args, *reps)
	}
	if *list {
		for _, id := range harness.IDs() {
			if ub, ok := harness.UpperBounds()[id]; ok {
				fmt.Printf("%-14s upper bound: %s\n", id, ub.Claim)
			} else {
				fmt.Printf("%-14s lower bound: %s\n", id, harness.LowerBounds()[id].Claim)
			}
		}
		return nil
	}
	sizes, err := parseInts(*sizesArg)
	if err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	lbScales, err := parseInts(*scales)
	if err != nil {
		return fmt.Errorf("-scales: %w", err)
	}

	ids := harness.IDs()
	if *expFlag != "all" {
		ids = []harness.Experiment{harness.Experiment(*expFlag)}
	}
	upper := harness.UpperBoundsWithFactor(*factor)
	if *jsonOut {
		return writeJSON(os.Stdout, args, ids, upper, sizes, *reps, *seed)
	}
	for _, id := range ids {
		if ub, ok := upper[id]; ok {
			res, err := harness.Sweep(ub, sizes, *reps, *seed)
			if err != nil {
				return err
			}
			harness.WriteSweepTable(os.Stdout, res)
			fmt.Println()
			continue
		}
		lbe, ok := harness.LowerBounds()[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		var rows []*harness.LBResult
		for _, scale := range lbScales {
			row, err := harness.RunLowerBound(lbe, scale, *seed)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		harness.WriteLBTable(os.Stdout, rows)
		fmt.Println()
	}
	return nil
}

// benchReport mirrors the schema of the committed baselines under bench/,
// so mwcbench output can be checked in next to the go-test benchmark
// snapshots and consumed by the same tooling (scripts/benchgate.go).
type benchReport struct {
	Benchmark   string           `json:"benchmark"`
	Recorded    string           `json:"recorded"`
	Purpose     string           `json:"purpose"`
	Environment benchEnvironment `json:"environment"`
	Cases       []benchCase      `json:"cases"`
}

type benchEnvironment struct {
	Goos      string `json:"goos"`
	Goarch    string `json:"goarch"`
	CPU       string `json:"cpu"`
	Benchtime string `json:"benchtime"`
	Command   string `json:"command"`
}

type benchCase struct {
	Name          string  `json:"name"`
	Workload      string  `json:"workload"`
	RoundsPerOp   float64 `json:"rounds_per_op"`
	MessagesPerOp float64 `json:"messages_per_op"`
	NsPerOp       float64 `json:"ns_per_op"`
	WorstRatio    float64 `json:"worst_ratio,omitempty"`
}

// writeJSON runs each upper-bound experiment at each size, timing the reps,
// and emits one case per (experiment, size).
func writeJSON(w *os.File, args []string, ids []harness.Experiment, upper map[harness.Experiment]harness.UpperBound, sizes []int, reps int, seed int64) error {
	rep := benchReport{
		Benchmark: "mwcbench",
		Recorded:  time.Now().UTC().Format("2006-01-02"),
		Purpose:   "Table-1 upper-bound sweeps in machine-readable form: per-(experiment,size) wall time, CONGEST rounds and message counts, for bench/ baselines and regression gating.",
		Environment: benchEnvironment{
			Goos:      runtime.GOOS,
			Goarch:    runtime.GOARCH,
			CPU:       cpuModel(),
			Benchtime: fmt.Sprintf("%dx", reps),
			Command:   "mwcbench " + strings.Join(args, " "),
		},
	}
	for _, id := range ids {
		ub, ok := upper[id]
		if !ok {
			// Lower-bound rows measure cut traffic, not per-op cost; they
			// have no place in this schema.
			fmt.Fprintf(os.Stderr, "mwcbench: skipping lower-bound experiment %s in -json mode\n", id)
			continue
		}
		for _, n := range sizes {
			var rounds, msgs, worst float64
			start := time.Now()
			for r := 0; r < reps; r++ {
				res, err := ub.Run(n, seed+int64(r)*101+int64(n))
				if err != nil {
					return fmt.Errorf("harness %s n=%d rep=%d: %w", id, n, r, err)
				}
				rounds += float64(res.Rounds)
				msgs += float64(res.Messages)
				if res.Ratio > worst {
					worst = res.Ratio
				}
			}
			elapsed := time.Since(start)
			rep.Cases = append(rep.Cases, benchCase{
				Name:          fmt.Sprintf("%s/n%d", id, n),
				Workload:      fmt.Sprintf("%s (%s), n=%d, %d reps", id, ub.Claim, n, reps),
				RoundsPerOp:   rounds / float64(reps),
				MessagesPerOp: msgs / float64(reps),
				NsPerOp:       float64(elapsed.Nanoseconds()) / float64(reps),
				WorstRatio:    worst,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// cpuModel returns the CPU model name, matching what `go test -bench`
// prints in its cpu: header; best-effort outside Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return runtime.GOARCH
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("size %d must be positive", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
