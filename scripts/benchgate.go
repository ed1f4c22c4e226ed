// Command benchgate compares a `go test -bench ... -benchmem` run against a
// committed baseline under bench/ and fails on regressions: more than
// -tolerance (default 20%) on ns/op, ANY increase in allocs/op — the
// zero-allocation discipline of the transport hot path is a hard invariant,
// not a budget (see docs/OBSERVABILITY.md) — or any change in the
// deterministic rounds/op and messages/op model costs. It is the only
// reader of `go test -bench` output in the repository and the only code
// that knows the bench/ schema.
//
// Benchmark output is read from stdin (or -input); baselines are the JSON
// snapshots committed under bench/. A baseline case named "wmwc_msgbound"
// matches the benchmark result "BenchmarkCSRHotPath/wmwc_msgbound-8":
// the Benchmark prefix and -GOMAXPROCS suffix are stripped and the last
// path segments are compared. Every repetition of a `-count N` run is
// gated: rounds, messages and allocs on each result line, ns/op on the
// median of the lines. A figure the baseline gates but a result line does
// not report fails the case. Baseline cases with no matching result in the
// run are skipped with a note — a baseline file may cover more benchmarks
// than one invocation runs. Every committed case carries at least one
// gated figure (ns_per_op or allocs_per_op); benchgate_test.go checks that.
//
// Re-recording a baseline is done by hand, not by a flag: run the file's
// environment.command several times, pipe each run through benchgate, and
// copy the figures it prints into the file. ns_per_op is the median of the
// runs; allocs_per_op is the highest of at least nine runs, and may only
// move down unless the change that raises it says why; rounds_per_op and
// messages_per_op are identical in every run and change only with the
// algorithm. Update the file's recorded date and purpose text to say what
// was re-recorded and why.
//
// Usage:
//
//	go test -run xxx -bench BenchmarkCSRHotPath -benchmem -benchtime 3x . |
//	  go run ./scripts/benchgate.go -baseline bench/csr_hotpath.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type baselineFile struct {
	Benchmark string         `json:"benchmark"`
	Cases     []baselineCase `json:"cases"`
}

type baselineCase struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	// RoundsPerOp and MessagesPerOp are CONGEST model costs: deterministic
	// given the benchmark's fixed seeds, so when positive they are gated
	// EXACTLY on the rounds/op / messages/op metrics every repetition must
	// report — any drift means the algorithm's communication behaviour
	// changed.
	RoundsPerOp   float64 `json:"rounds_per_op"`
	MessagesPerOp float64 `json:"messages_per_op"`
}

// gated reports whether the case carries a wall-clock or allocation figure
// benchgate checks on every matching result, besides the model costs.
func (c baselineCase) gated() bool {
	return c.NsPerOp > 0 || c.AllocsPerOp != nil
}

// result is one parsed benchmark output line.
type result struct {
	name string // normalized: no Benchmark prefix, no -P suffix
	ns   float64
	has  map[string]float64 // other per-op metrics (allocs, B, messages, rounds)
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([\d.]+) ns/op(.*)$`)
var metric = regexp.MustCompile(`([\d.]+) ([^\s/]+)/op`)

func parseResults(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		res := result{name: normalize(m[1]), ns: ns, has: map[string]float64{}}
		for _, mm := range metric.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				continue
			}
			res.has[mm[2]] = v
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// normalize strips the Benchmark prefix and the trailing -GOMAXPROCS of a
// benchmark result name.
func normalize(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// match finds the results for a baseline case: the first result whose
// normalized name equals the case name or ends in it as whole path
// segments, and every later repetition of that same benchmark.
func match(results []result, caseName string) []result {
	var out []result
	for _, r := range results {
		if len(out) > 0 {
			if r.name == out[0].name {
				out = append(out, r)
			}
		} else if r.name == caseName || strings.HasSuffix(r.name, "/"+caseName) {
			out = append(out, r)
		}
	}
	return out
}

// gate is one per-repetition figure of a baseline case.
type gate struct {
	metric string  // per-op unit: rounds, messages or allocs
	base   float64 // the baseline figure
	exact  bool    // a model cost that must match; otherwise it must not rise
}

// check returns why a repetition's figure fails the gate, or "".
func (g gate) check(got float64, reported bool) string {
	switch {
	case !reported:
		return fmt.Sprintf("no %s/op reported; the baseline gates %.1f", g.metric, g.base)
	case g.exact && got != g.base:
		return fmt.Sprintf("%.1f %s/op vs baseline %.1f (deterministic model cost must match exactly)",
			got, g.metric, g.base)
	case !g.exact && got > g.base:
		return fmt.Sprintf("%.0f %s/op vs baseline %.0f (any allocation regression fails)",
			got, g.metric, g.base)
	}
	return ""
}

// medianNs is the median ns/op of the repetitions (the mean of the middle
// two for an even count).
func medianNs(rs []result) float64 {
	ns := make([]float64, len(rs))
	for i, r := range rs {
		ns[i] = r.ns
	}
	sort.Float64s(ns)
	m := len(ns) / 2
	if len(ns)%2 == 0 {
		return (ns[m-1] + ns[m]) / 2
	}
	return ns[m]
}

func main() {
	var (
		baselines = flag.String("baseline", "", "comma-separated baseline JSON files (required)")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression")
		input     = flag.String("input", "", "benchmark output file (default stdin)")
	)
	flag.Parse()
	if err := run(os.Stdout, *baselines, *tolerance, *input); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, baselines string, tolerance float64, input string) error {
	if baselines == "" {
		return fmt.Errorf("-baseline is required")
	}
	in := io.Reader(os.Stdin)
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	results, err := parseResults(in)
	if err != nil {
		return fmt.Errorf("parsing benchmark output: %w", err)
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark result lines in input")
	}
	var failures []string
	checked := 0
	for _, path := range strings.Split(baselines, ",") {
		path = strings.TrimSpace(path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var bf baselineFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, c := range bf.Cases {
			if !c.gated() {
				fmt.Fprintf(out, "skip  %s/%s: no gated figures\n", bf.Benchmark, c.Name)
				continue
			}
			rs := match(results, c.Name)
			if len(rs) == 0 {
				fmt.Fprintf(out, "skip  %s/%s: not in this run\n", bf.Benchmark, c.Name)
				continue
			}
			checked++
			name := rs[0].name
			if base := c.NsPerOp; base > 0 {
				ns := medianNs(rs)
				ratio := ns / base
				status := "ok   "
				if ratio > 1+tolerance {
					status = "FAIL "
					failures = append(failures, fmt.Sprintf(
						"%s: %.0f ns/op vs baseline %.0f (%.2fx > allowed %.2fx, median of %d)",
						name, ns, base, ratio, 1+tolerance, len(rs)))
				}
				fmt.Fprintf(out, "%s %-40s %12.0f ns/op  baseline %12.0f  (%.2fx, median of %d)\n",
					status, name, ns, base, ratio, len(rs))
			}
			gates := []gate{{"rounds", c.RoundsPerOp, true}, {"messages", c.MessagesPerOp, true}}
			if c.AllocsPerOp != nil {
				gates = append(gates, gate{"allocs", *c.AllocsPerOp, false})
			}
			for _, g := range gates {
				if g.exact && g.base <= 0 {
					continue
				}
				for i, r := range rs {
					got, reported := r.has[g.metric]
					status := "ok   "
					if fail := g.check(got, reported); fail != "" {
						status = "FAIL "
						failures = append(failures, fmt.Sprintf("%s: repetition %d: %s", name, i+1, fail))
					}
					fmt.Fprintf(out, "%s %-40s %12.1f %s/op  baseline %12.1f  (repetition %d)\n",
						status, name, got, g.metric, g.base, i+1)
				}
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("no baseline case matched any benchmark result")
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(out, "benchgate: %d case(s) within tolerance %.0f%%\n", checked, tolerance*100)
	return nil
}
