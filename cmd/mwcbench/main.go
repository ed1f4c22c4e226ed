// Command mwcbench regenerates the paper's Table 1, experiment by
// experiment (see DESIGN.md for the experiment index). For upper-bound rows
// it sweeps instance sizes, reports measured CONGEST rounds, the fitted
// round-complexity exponent against the claimed one, and the worst observed
// approximation ratio. For lower-bound rows it delegates to the same
// machinery as cmd/lbharness.
//
// mwcbench prints tables only. The gated baselines under bench/ are
// `go test -bench` figures, checked by scripts/benchgate.go.
//
// Examples:
//
//	mwcbench -list
//	mwcbench -exp T1-GIRTH-2APX -sizes 64,128,256,512 -reps 3
//	mwcbench -exp all -sizes 64,128,256 -reps 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

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
		expFlag  = fs.String("exp", "all", "experiment ID (see -list) or 'all'")
		sizesArg = fs.String("sizes", "64,128,256", "comma-separated instance sizes")
		scales   = fs.String("scales", "4,6,8,12", "comma-separated lower-bound scales")
		reps     = fs.Int("reps", 2, "repetitions (seeds) per size")
		seed     = fs.Int64("seed", 1, "base seed")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		factor   = fs.Float64("factor", 0, "sampling constant override (0 = algorithm default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
