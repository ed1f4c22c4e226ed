package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureBaseline is a small bench/ file: one case per gated figure kind.
const fixtureBaseline = `{
  "benchmark": "BenchmarkFixture",
  "cases": [
    {"name": "hot/msgbound", "ns_per_op": 1000, "allocs_per_op": 10, "rounds_per_op": 22, "messages_per_op": 315},
    {"name": "Round", "allocs_per_op": 0}
  ]
}`

const fixtureHeader = "goos: linux\ngoarch: amd64\npkg: congestmwc\n"

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		input   string // benchmark output lines after the header
		wantErr string // "" = pass
	}{
		{
			name: "prefix and GOMAXPROCS suffix stripped; sub-path suffix matched",
			input: "BenchmarkFixture/hot/msgbound-8   3   1100 ns/op   315.0 messages/op   22.00 rounds/op   512 B/op   10 allocs/op\n" +
				"BenchmarkRound-2   2000   150 ns/op   0 B/op   0 allocs/op\n",
		},
		{
			name:  "fewer allocs and faster pass",
			input: "BenchmarkFixture/hot/msgbound-2   3   500 ns/op   315 messages/op   22 rounds/op   9 allocs/op\n",
		},
		{
			name:    "rounds mismatch fails",
			input:   "BenchmarkFixture/hot/msgbound-8   3   1000 ns/op   315 messages/op   21 rounds/op   10 allocs/op\n",
			wantErr: "rounds/op vs baseline 22.0",
		},
		{
			name:    "messages mismatch fails",
			input:   "BenchmarkFixture/hot/msgbound-8   3   1000 ns/op   316 messages/op   22 rounds/op   10 allocs/op\n",
			wantErr: "messages/op vs baseline 315.0",
		},
		{
			name:    "one more alloc fails",
			input:   "BenchmarkFixture/hot/msgbound-8   3   1000 ns/op   315 messages/op   22 rounds/op   11 allocs/op\n",
			wantErr: "11 allocs/op vs baseline 10",
		},
		{
			name:    "zero-alloc case fails on its first alloc",
			input:   "BenchmarkRound-8   2000   150 ns/op   16 B/op   1 allocs/op\n",
			wantErr: "1 allocs/op vs baseline 0",
		},
		{
			name:  "ns at the tolerance passes",
			input: "BenchmarkFixture/hot/msgbound-8   3   1200 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n",
		},
		{
			name:    "ns over the tolerance fails",
			input:   "BenchmarkFixture/hot/msgbound-8   3   1201 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n",
			wantErr: "1201 ns/op vs baseline 1000",
		},
		{
			name: "every repetition's allocs are gated",
			input: "BenchmarkFixture/hot/msgbound-8   3   1000 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n" +
				"BenchmarkFixture/hot/msgbound-8   3   1000 ns/op   315 messages/op   22 rounds/op   9999 allocs/op\n" +
				"BenchmarkFixture/hot/msgbound-8   3   1000 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n",
			wantErr: "repetition 2: 9999 allocs/op vs baseline 10",
		},
		{
			name: "every repetition's model cost is gated",
			input: "BenchmarkFixture/hot/msgbound-8   3   1000 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n" +
				"BenchmarkFixture/hot/msgbound-8   3   1000 ns/op   315 messages/op   23 rounds/op   10 allocs/op\n",
			wantErr: "repetition 2: 23.0 rounds/op vs baseline 22.0",
		},
		{
			name: "ns gated on the median of the repetitions",
			input: "BenchmarkFixture/hot/msgbound-8   3   5000 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n" +
				"BenchmarkFixture/hot/msgbound-8   3   1100 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n" +
				"BenchmarkFixture/hot/msgbound-8   3   900 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n",
		},
		{
			name: "a median over the tolerance fails",
			input: "BenchmarkFixture/hot/msgbound-8   3   1300 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n" +
				"BenchmarkFixture/hot/msgbound-8   3   900 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n" +
				"BenchmarkFixture/hot/msgbound-8   3   1250 ns/op   315 messages/op   22 rounds/op   10 allocs/op\n",
			wantErr: "1250 ns/op vs baseline 1000",
		},
		{
			name:    "a gated model cost the run does not report fails",
			input:   "BenchmarkFixture/hot/msgbound-8   3   1000 ns/op   315 messages/op   10 allocs/op\n",
			wantErr: "no rounds/op reported; the baseline gates 22.0",
		},
		{
			name:    "gated allocs the run does not report fail",
			input:   "BenchmarkRound-8   2000   150 ns/op\n",
			wantErr: "no allocs/op reported; the baseline gates 0.0",
		},
		{
			name:    "a suffix that is not whole path segments does not match",
			input:   "BenchmarkFixture/shot/msgbound-8   3   1000 ns/op   10 allocs/op\n",
			wantErr: "no baseline case matched",
		},
		{
			name:    "no case matched",
			input:   "BenchmarkOther/thing-8   3   1000 ns/op   10 allocs/op\n",
			wantErr: "no baseline case matched",
		},
		{
			name:    "no result lines",
			input:   "PASS\n",
			wantErr: "no benchmark result lines",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			baseline := filepath.Join(dir, "baseline.json")
			input := filepath.Join(dir, "bench.txt")
			if err := os.WriteFile(baseline, []byte(fixtureBaseline), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(input, []byte(fixtureHeader+tc.input+"PASS\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			err := run(io.Discard, baseline, 0.20, input)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("run: %v, want pass", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("run passed, want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("run: %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCommittedBaselinesGated: every case of every committed baseline
// carries a figure benchgate checks, so no bench/ file holds records that
// look gated but are not.
func TestCommittedBaselinesGated(t *testing.T) {
	paths, err := filepath.Glob("../bench/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed baselines under bench/")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var bf baselineFile
		if err := json.Unmarshal(data, &bf); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !strings.HasPrefix(bf.Benchmark, "Benchmark") || len(bf.Cases) == 0 {
			t.Errorf("%s: benchmark %q with %d cases, want a go test benchmark and at least one case",
				path, bf.Benchmark, len(bf.Cases))
		}
		for _, c := range bf.Cases {
			if !c.gated() {
				t.Errorf("%s: case %q has no ns_per_op or allocs_per_op figure", path, c.Name)
			}
		}
	}
}
