package congestmwc_test

// Native fuzz targets over the internal/check oracle registry, so `go test
// -fuzz` and the cmd/mwcfuzz soak driver share one notion of correctness.
// The targets live in the external test package: internal/check imports
// congestmwc, so an internal fuzz file would be an import cycle.
//
// Run them with, e.g.:
//
//	go test -fuzz FuzzApproxMWC -fuzztime 30s .
//	go test -fuzz FuzzPortfolio -fuzztime 30s .
//
// Seed corpora live under testdata/fuzz/<Target>/; docs/TESTING.md
// documents the byte encoding and how to replay a crasher.

import (
	"testing"

	"congestmwc"
	"congestmwc/internal/check"
)

// fuzzOptions maps the fuzzed seed onto the harness seed range; every target
// shares the mapping.
func fuzzOptions(seed int64) check.RunOptions {
	if seed < 0 {
		seed = -seed
	}
	return check.RunOptions{Seed: seed%1024 + 1}
}

// FuzzApproxMWC checks every approximation oracle (found-agreement,
// soundness, ratio bound, witness validity, round ceiling, engine
// agreement, Init-phase cancellation) on fuzzer-shaped instances.
func FuzzApproxMWC(f *testing.F) {
	f.Add(byte(0), byte(5), int64(1), []byte{0, 3, 1, 4})
	f.Add(byte(1), byte(9), int64(7), []byte{2, 0, 5, 1, 0, 6})
	f.Add(byte(2), byte(12), int64(3), []byte{0, 4, 0, 1, 5, 9, 2, 6, 16})
	f.Add(byte(3), byte(7), int64(11), []byte{3, 0, 2, 1, 4, 0})
	f.Fuzz(func(t *testing.T, classSel, sizeSel byte, seed int64, data []byte) {
		inst := check.DecodeInstance(classSel, sizeSel, data)
		// Only the approximation runs, keeping the per-execution cost low
		// enough for the mutation engine while still exercising both engines
		// and the cancellation probe.
		opts := fuzzOptions(seed)
		opts.Algos = []string{congestmwc.AlgoNameApprox}
		opts.Parallel, opts.Cancel = true, true
		vs, err := check.CheckInstance(inst, opts)
		if err != nil {
			t.Fatalf("decoded instance unusable (decoder must always build a connected graph): %v", err)
		}
		for _, v := range vs {
			t.Errorf("n=%d m=%d class=%v: %s", inst.N, len(inst.Edges), inst.Class, v)
		}
	})
}

// fuzzOne runs the generic oracle family for one registered algorithm on a
// decoded instance.
func fuzzOne(t *testing.T, algo string, classSel, sizeSel byte, seed int64, data []byte) {
	inst := check.DecodeInstance(classSel, sizeSel, data)
	opts := fuzzOptions(seed)
	opts.Algos = []string{algo}
	vs, err := check.CheckInstance(inst, opts)
	if err != nil {
		t.Fatalf("decoded instance unusable: %v", err)
	}
	for _, v := range vs {
		t.Errorf("n=%d m=%d class=%v: %s", inst.N, len(inst.Edges), inst.Class, v)
	}
}

// FuzzExactVsReference differentially checks the O~(n)-round exact
// algorithm (weight, witness, round ceiling) against the sequential
// reference on fuzzer-shaped instances. FuzzPortfolio covers the same
// oracles; this target mutates toward the exact engine alone.
func FuzzExactVsReference(f *testing.F) {
	f.Add(byte(0), byte(4), int64(1), []byte{1, 3, 0, 2})
	f.Add(byte(1), byte(8), int64(5), []byte{4, 0, 6, 2})
	f.Add(byte(2), byte(10), int64(2), []byte{0, 5, 7, 3, 1, 0})
	f.Add(byte(3), byte(6), int64(9), []byte{2, 0, 3, 4, 1, 15})
	f.Fuzz(func(t *testing.T, classSel, sizeSel byte, seed int64, data []byte) {
		fuzzOne(t, congestmwc.AlgoNameExact, classSel, sizeSel, seed, data)
	})
}

// FuzzAgarwalVsReference differentially checks the batched exact algorithm
// (bit-for-bit weight agreement with the sequential reference, witness
// validity, theorem-shaped round ceiling) on fuzzer-shaped instances of all
// four classes.
func FuzzAgarwalVsReference(f *testing.F) {
	f.Add(byte(0), byte(4), int64(1), []byte{1, 3, 0, 2})
	f.Add(byte(1), byte(8), int64(5), []byte{4, 0, 6, 2})
	f.Add(byte(2), byte(10), int64(2), []byte{0, 5, 7, 3, 1, 0})
	f.Add(byte(3), byte(6), int64(9), []byte{2, 0, 3, 4, 1, 15})
	f.Fuzz(func(t *testing.T, classSel, sizeSel byte, seed int64, data []byte) {
		fuzzOne(t, congestmwc.AlgoNameAgarwal, classSel, sizeSel, seed, data)
	})
}

// FuzzPortfolio is the portfolio cross-check: every registered algorithm
// runs on the instance when it is in its range, and the generic oracle
// family checks each (found-agreement, soundness, registered bound — the
// reference itself for the exact engines — witness validity, round
// ceiling); the planner-soundness oracle checks every canonical guarantee
// plans to an algorithm at least as strong. The committed inputs under
// testdata/fuzz/FuzzPortfolio/ pin one instance per class.
func FuzzPortfolio(f *testing.F) {
	f.Add(byte(0), byte(5), int64(1), []byte{0, 3, 1, 4})
	f.Add(byte(1), byte(9), int64(7), []byte{2, 0, 5, 1, 0, 6})
	f.Add(byte(2), byte(12), int64(3), []byte{0, 4, 0, 1, 5, 9, 2, 6, 16})
	f.Add(byte(3), byte(7), int64(11), []byte{3, 0, 2, 1, 4, 0})
	f.Fuzz(func(t *testing.T, classSel, sizeSel byte, seed int64, data []byte) {
		inst := check.DecodeInstance(classSel, sizeSel, data)
		vs, err := check.CheckInstance(inst, fuzzOptions(seed))
		if err != nil {
			t.Fatalf("decoded instance unusable: %v", err)
		}
		for _, v := range vs {
			t.Errorf("n=%d m=%d class=%v: %s", inst.N, len(inst.Edges), inst.Class, v)
		}
	})
}
