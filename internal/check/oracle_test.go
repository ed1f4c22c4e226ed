package check

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"congestmwc"
)

// TestOraclesCleanOnGeneratedInstances is the in-process soak: every
// class, every shape, both engines, with the exact baseline and the
// cancellation probe — zero violations expected. cmd/mwcfuzz runs the same
// loop for minutes; this keeps a slice of it in `go test`.
func TestOraclesCleanOnGeneratedInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is seconds-long; skipped in -short")
	}
	for _, class := range Classes {
		for _, shape := range Shapes(class) {
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 2; i++ {
				inst := ShapeInstance(rng, class, shape, 20)
				vs, err := CheckInstance(inst, RunOptions{
					Seed: int64(10*i + 1), Parallel: true, Cancel: true,
				})
				if err != nil {
					t.Fatalf("%v/%s: %v", class, shape, err)
				}
				for _, v := range vs {
					t.Errorf("%v/%s (n=%d, m=%d): %s", class, shape, inst.N, len(inst.Edges), v)
				}
			}
		}
	}
}

// TestZeroWeightRejectionIsExpected: weight-0 edges make the weighted
// approximation refuse (documented), and the oracles must not count that
// refusal as a violation — while exact and reference still agree.
func TestZeroWeightRejectionIsExpected(t *testing.T) {
	inst := Instance{
		Class: congestmwc.UndirectedWeighted,
		N:     4,
		Edges: []congestmwc.Edge{
			{From: 0, To: 1, Weight: 0},
			{From: 1, To: 2, Weight: 3},
			{From: 2, To: 3, Weight: 0},
			{From: 3, To: 0, Weight: 1},
		},
		Label: ShapeZeroWeight,
	}
	out, err := Run(inst, RunOptions{Algos: []string{congestmwc.AlgoNameApprox, congestmwc.AlgoNameExact}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Runs[congestmwc.AlgoNameApprox].Err == nil {
		t.Fatal("expected the weighted pipeline to reject weight-0 edges")
	}
	if !out.RefFound || out.Ref != 4 {
		t.Fatalf("reference = (%d, %v), want (4, true)", out.Ref, out.RefFound)
	}
	for _, v := range Check(out) {
		t.Errorf("unexpected violation: %s", v)
	}
}

// TestOracleCatchesWrongExactWeight: a doctored outcome (exact result off
// by one either way) must trip exact-ratio and exact-sound — the oracles
// cannot be vacuous.
func TestOracleCatchesWrongExactWeight(t *testing.T) {
	assertExactWeightChecked(t, congestmwc.AlgoNameExact)
}

// assertExactWeightChecked doctors an exact algorithm's weight on a ring
// past and below the reference: the ratio oracle (bound = ref for exact
// algorithms) and the soundness oracle must catch the two.
func assertExactWeightChecked(t *testing.T, algo string) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	inst := ShapeInstance(rng, congestmwc.Undirected, ShapeRing, 12)
	out, err := Run(inst, RunOptions{Algos: []string{algo}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Runs[algo].Res
	if res == nil || !res.Found {
		t.Fatalf("%s found no cycle on a ring", algo)
	}
	for delta, oracle := range map[int64]string{+1: algo + "-ratio", -1: algo + "-sound"} {
		res.Weight = out.Ref + delta
		res.Cycle = nil
		if !tripped(out)[oracle] {
			t.Errorf("%s weight off by %+d not caught by %s", algo, delta, oracle)
		}
	}
}

// tripped is the set of oracles that fail on the outcome.
func tripped(out *Outcome) map[string]bool {
	trip := map[string]bool{}
	for _, v := range Check(out) {
		trip[v.Oracle] = true
	}
	return trip
}

// TestOracleCatchesBogusWitness: a corrupted witness cycle must trip the
// witness oracle.
func TestOracleCatchesBogusWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := ShapeInstance(rng, congestmwc.Undirected, ShapeRing, 12)
	out, err := Run(inst, RunOptions{Algos: []string{congestmwc.AlgoNameExact}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Runs[congestmwc.AlgoNameExact].Res
	if res == nil || len(res.Cycle) < 3 {
		t.Fatal("exact produced no witness on a ring")
	}
	res.Cycle = res.Cycle[:len(res.Cycle)-1]
	found := false
	for _, v := range Check(out) {
		if v.Oracle == "exact-witness" {
			found = true
		}
	}
	if !found {
		t.Fatal("corrupted witness not caught by exact-witness")
	}
}

// TestOracleCatchesWrongAgarwalWeight: a doctored agarwal result must trip
// the bit-for-bit cross-check against the reference.
func TestOracleCatchesWrongAgarwalWeight(t *testing.T) {
	assertExactWeightChecked(t, "agarwal")
}

// TestOracleCatchesGirthApxRatioBreach: a doctored girthapx weight past
// 2*ref must trip the ratio oracle, and an undercut must trip soundness.
func TestOracleCatchesGirthApxRatioBreach(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := ShapeInstance(rng, congestmwc.Undirected, ShapeRing, 12)
	out, err := Run(inst, RunOptions{Algos: []string{"girthapx"}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Runs["girthapx"].Res
	if res == nil || !res.Found {
		t.Fatal("girthapx found no cycle on a ring")
	}
	res.Weight = 2*out.Ref + 1
	res.Cycle = nil
	if !tripped(out)["girthapx-ratio"] {
		t.Fatal("ratio breach not caught by girthapx-ratio")
	}
	res.Weight = out.Ref - 1
	if !tripped(out)["girthapx-sound"] {
		t.Fatal("undercut not caught by girthapx-sound")
	}
}

// TestGirthApxSkippedOutsideRange: directed or huge-weight instances must
// not be run through girthapx at all (the stretched simulation is
// pseudo-polynomial in the weights), and skipping is not a violation.
func TestGirthApxSkippedOutsideRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	directed := ShapeInstance(rng, congestmwc.Directed, ShapeRing, 10)
	opts := RunOptions{Algos: []string{"girthapx"}}
	out, err := Run(directed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ran := out.Runs["girthapx"]; ran {
		t.Fatal("girthapx ran on a directed instance")
	}
	girthapx, _ := congestmwc.AlgorithmByName("girthapx")
	heavy := ShapeInstance(rng, congestmwc.UndirectedWeighted, ShapeMaxWeight, 10)
	if heavy.MaxWeight() <= girthapx.CheckMaxWeight {
		t.Fatalf("max-weight shape stayed under the cap: %d", heavy.MaxWeight())
	}
	out, err = Run(heavy, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ran := out.Runs["girthapx"]; ran {
		t.Fatal("girthapx ran past the weight cap")
	}
	for _, v := range Check(out) {
		if strings.HasPrefix(v.Oracle, "girthapx-") {
			t.Errorf("skipped girthapx produced a violation: %s", v)
		}
	}
}

// TestRoundCeilingShape: ceilings grow with n, are positive, and the
// weighted ones grow with the maximum weight.
func TestRoundCeilingShape(t *testing.T) {
	for _, a := range congestmwc.Portfolio() {
		for _, class := range a.Classes {
			prev := 0
			for _, n := range []int{4, 16, 64, 256} {
				c := a.RoundCeiling(class, n, n/2, 0.25, 9)
				if c <= prev {
					t.Errorf("%v/%s: ceiling not increasing at n=%d: %d <= %d", class, a.Name, n, c, prev)
				}
				prev = c
			}
		}
	}
	approx, _ := congestmwc.AlgorithmByName(congestmwc.AlgoNameApprox)
	small := approx.RoundCeiling(congestmwc.UndirectedWeighted, 32, 5, 0.25, 2)
	big := approx.RoundCeiling(congestmwc.UndirectedWeighted, 32, 5, 0.25, 1<<30)
	if big <= small {
		t.Errorf("weighted ceiling ignores maxW: %d <= %d", big, small)
	}
}

// TestRegistryBoundsMatchGolden pins the registry-derived report bounds and
// round ceilings to a table captured from the hand-written oracles they
// replaced (testdata/bounds_golden.json): every (algorithm, served class)
// pair, ref in {1, 3, 7, 1000}, eps in {0.25, 0.5} and four (n, D, maxW)
// sizes. It keeps 2g-1 on undirected approx, 2*ref on girthapx with no
// slack, ref on the exact engines, and the +2 rounding slack only on
// weighted approx.
func TestRegistryBoundsMatchGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/bounds_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Algo, Class      string
		Eps              float64
		N, D, Ceiling    int
		Ref, MaxW, Bound int64
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	pairs := map[string]bool{}
	for _, r := range rows {
		a, ok := congestmwc.AlgorithmByName(r.Algo)
		if !ok {
			t.Fatalf("golden algorithm %q is not registered", r.Algo)
		}
		var class congestmwc.Class
		for _, c := range a.Classes {
			if c.String() == r.Class {
				class = c
			}
		}
		if class == 0 {
			t.Fatalf("%s no longer serves %s", r.Algo, r.Class)
		}
		pairs[r.Algo+"/"+r.Class] = true
		if got := a.Bound(class, r.Ref, r.Eps); got != r.Bound {
			t.Errorf("%s/%s ref=%d eps=%v: bound %d, golden %d", r.Algo, r.Class, r.Ref, r.Eps, got, r.Bound)
		}
		if got := a.RoundCeiling(class, r.N, r.D, r.Eps, r.MaxW); got != r.Ceiling {
			t.Errorf("%s/%s n=%d D=%d maxW=%d eps=%v: ceiling %d, golden %d",
				r.Algo, r.Class, r.N, r.D, r.MaxW, r.Eps, got, r.Ceiling)
		}
	}
	want := 0
	for _, a := range congestmwc.Portfolio() {
		want += len(a.Classes)
	}
	if len(pairs) != want || len(rows) != want*2*4*4 {
		t.Fatalf("golden covers %d pairs in %d rows, registry has %d (algorithm, class) pairs", len(pairs), len(rows), want)
	}
}

// TestHarnessRangeFromRegistry: the error oracle's zero-weight carve-out
// and the instances girthapx runs on follow the registry, exactly as the
// hand-written harness had them: approx and girthapx excuse weighted
// zero-weight instances, exact and agarwal do not; girthapx runs on
// undirected instances up to maxW 64.
func TestHarnessRangeFromRegistry(t *testing.T) {
	zero := Instance{Class: congestmwc.UndirectedWeighted, Edges: []congestmwc.Edge{{Weight: 0}}}
	wantRejects := map[string]bool{"approx": true, "girthapx": true, "exact": false, "agarwal": false}
	for _, a := range congestmwc.Portfolio() {
		if got := expectedReject(a, zero); got != wantRejects[a.Name] {
			t.Errorf("%s: zero-weight rejection excused=%v, want %v", a.Name, got, wantRejects[a.Name])
		}
	}
	girthapx, _ := congestmwc.AlgorithmByName("girthapx")
	for _, c := range Classes {
		for _, w := range []int64{1, 64, 65} {
			inst := Instance{Class: c, Edges: []congestmwc.Edge{{Weight: w}}}
			want := (c == congestmwc.Undirected || c == congestmwc.UndirectedWeighted) && inst.MaxWeight() <= 64
			if got := inRange(girthapx, inst); got != want {
				t.Errorf("girthapx on %s maxW=%d: runs=%v, want %v", c, inst.MaxWeight(), got, want)
			}
		}
	}
}

// TestCorpusRoundTrip: WriteCorpus output is loadable by ReadCorpus (and
// by plain graphio.Read, which the test exercises through it) with the
// instance and metadata intact.
func TestCorpusRoundTrip(t *testing.T) {
	for _, class := range Classes {
		rng := rand.New(rand.NewSource(21))
		inst := RandomInstance(rng, class, 24)
		var buf bytes.Buffer
		meta := map[string]string{"oracle": "approx-ratio", "seed": "42"}
		if err := WriteCorpus(&buf, inst, meta); err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		back, gotMeta, err := ReadCorpus(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		if back.Class != inst.Class || back.N != inst.N || len(back.Edges) != len(inst.Edges) {
			t.Errorf("%v: round trip changed shape: %+v -> %+v", class, inst, back)
		}
		if gotMeta["oracle"] != "approx-ratio" || gotMeta["seed"] != "42" || gotMeta["shape"] != inst.Label {
			t.Errorf("%v: metadata lost: %v", class, gotMeta)
		}
	}
}

// TestGoTestCase renders a compilable-looking regression test.
func TestGoTestCase(t *testing.T) {
	inst := Instance{
		Class: congestmwc.DirectedWeighted,
		N:     2,
		Edges: []congestmwc.Edge{{From: 0, To: 1, Weight: 2}, {From: 1, To: 0, Weight: 3}},
		Label: "ring",
	}
	src := GoTestCase(inst, "approx-ratio", RunOptions{Seed: 9})
	for _, want := range []string{
		"func TestRepro", "congestmwc.DirectedWeighted", "{From: 0, To: 1, Weight: 2}",
		"check.CheckInstance", `"approx-ratio"`, "Seed: 9",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted test case missing %q:\n%s", want, src)
		}
	}
}
