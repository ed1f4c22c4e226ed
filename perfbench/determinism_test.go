package main

import (
	"encoding/json"
	"os"
	"testing"
)

// modelCost is what a run must reproduce exactly for one seed: the
// simulated CONGEST cost, the worst ratio and the mix the plan fixed.
type modelCost struct {
	rounds, messages int64
	ratioMax         float64
	mix              [4]int // memory hits, durable hits, dedups, kept patches
}

func tinyRun(t *testing.T, name string, seed int64) modelCost {
	t.Helper()
	w := workloads[name]()
	if err := w.prepare(config{seed: seed, seconds: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	p, err := w.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.teardown(); err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || len(p.invalid) != 0 {
		t.Fatalf("%s seed %d: %d failed %v, invalid %v", name, seed, p.failed, p.failures, p.invalid)
	}
	c := modelCost{rounds: p.rounds, messages: p.messages, ratioMax: p.ratioMax}
	switch w := w.(type) {
	case *jobsMixed:
		c.mix = [4]int{w.plan.memHits, w.plan.durHits, w.plan.dups, 0}
	case *sessionChurn:
		c.mix = [4]int{0, 0, 0, w.plan.kept}
	}
	return c
}

// TestSeedDeterminesModelCost runs every workload at a tiny size: one seed
// twice gives bit-identical model cost and planned mix, so the seed alone
// fixes the inputs; another seed changes the cost, so the seed reaches the
// generator. The planned mix is fixed by construction and stays the same.
func TestSeedDeterminesModelCost(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b, c := tinyRun(t, name, 7), tinyRun(t, name, 7), tinyRun(t, name, 8)
			if a != b {
				t.Errorf("seed 7 twice: %+v then %+v", a, b)
			}
			if a.rounds == c.rounds && a.messages == c.messages {
				t.Errorf("seeds 7 and 8 simulate the same cost %+v", a)
			}
			if a.mix != c.mix {
				t.Errorf("planned mix depends on the seed: %v vs %v", a.mix, c.mix)
			}
		})
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists equal
// to what the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for _, wl := range bj.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("workload %q is not in the program", wl.Name)
		}
	}
	e2e := endToEnd(&passResult{ops: 1}, []float64{1})
	if len(bj.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(bj.EndToEnd), len(e2e))
	}
	for _, m := range bj.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s/%s: program reports %+v", m.Name, m.Unit, got)
		}
	}
	lm := layerMetrics()
	if len(bj.PerLayer) != len(lm) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(bj.PerLayer), len(lm))
	}
	for i, m := range bj.PerLayer {
		if want := lm[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, want)
		}
	}
}
