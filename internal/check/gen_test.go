package check

import (
	"math/rand"
	"reflect"
	"testing"

	"congestmwc"
)

// TestShapeInstancesValid: every shape of every class yields a buildable,
// connected instance across many sizes and seeds — the generator must
// never hand the oracles an unusable graph.
func TestShapeInstancesValid(t *testing.T) {
	for _, class := range Classes {
		for _, shape := range Shapes(class) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 20; i++ {
				inst := ShapeInstance(rng, class, shape, 40)
				if inst.Label != shape {
					t.Fatalf("%v/%s: label %q", class, shape, inst.Label)
				}
				if !inst.Valid() {
					t.Errorf("%v/%s iteration %d: invalid instance n=%d m=%d",
						class, shape, i, inst.N, len(inst.Edges))
				}
			}
		}
	}
}

// TestRandomInstanceDeterministic: the generator is a pure function of the
// rng state, so identical seeds give identical instances.
func TestRandomInstanceDeterministic(t *testing.T) {
	for _, class := range Classes {
		a := RandomInstance(rand.New(rand.NewSource(99)), class, 32)
		b := RandomInstance(rand.New(rand.NewSource(99)), class, 32)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: same seed produced different instances:\n%+v\n%+v", class, a, b)
		}
	}
}

// TestZeroWeightShapeHasZeroWeights: the adversarial zero-weight shape
// must actually produce weight-0 edges (it exists to probe the weighted
// pipeline's documented rejection).
func TestZeroWeightShapeHasZeroWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	saw := false
	for i := 0; i < 10 && !saw; i++ {
		inst := ShapeInstance(rng, congestmwc.UndirectedWeighted, ShapeZeroWeight, 24)
		saw = inst.HasZeroWeight()
	}
	if !saw {
		t.Fatal("zero-weight shape never produced a zero-weight edge")
	}
}

// TestAcyclicShapeIsAcyclic: the acyclic shape must be reference-acyclic
// (it is the oracles' Found=false case).
func TestAcyclicShapeIsAcyclic(t *testing.T) {
	for _, class := range Classes {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 10; i++ {
			inst := ShapeInstance(rng, class, ShapeAcyclic, 24)
			out, err := Run(inst, RunOptions{Algos: []string{congestmwc.AlgoNameApprox}})
			if err != nil {
				t.Fatalf("%v: %v", class, err)
			}
			if out.RefFound {
				t.Fatalf("%v iteration %d: acyclic instance has a cycle of weight %d", class, i, out.Ref)
			}
		}
	}
}
