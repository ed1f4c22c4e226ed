package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"congestmwc"
)

// TestRunEveryAlgorithm runs mwcrun on a small ring for every registered
// algorithm (on a class it serves) and for ksssp; each must succeed, label
// the run from the registry and agree with the reference.
func TestRunEveryAlgorithm(t *testing.T) {
	for _, name := range append(congestmwc.AlgorithmNames(), "ksssp") {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-gen", "ring", "-n", "8", "-class", "uw", "-maxw", "3", "-algo", name}, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if a, ok := congestmwc.AlgorithmByName(name); ok {
				if !strings.Contains(out.String(), "algorithm: "+name+" — "+a.Description) {
					t.Errorf("label does not come from the registry:\n%s", out.String())
				}
				if !strings.Contains(out.String(), "reference MWC: 24  ratio: 1.000") {
					t.Errorf("ring answer does not match the reference:\n%s", out.String())
				}
			}
		})
	}
}

// TestRunApproxDirectedWitness: the facade returns a witness on every
// class, so -algo approx on a directed ring must print it and highlight it
// in the -dot output.
func TestRunApproxDirectedWitness(t *testing.T) {
	dotFile := filepath.Join(t.TempDir(), "ring.dot")
	var out bytes.Buffer
	if err := run([]string{"-gen", "ring", "-n", "6", "-class", "d", "-algo", "approx", "-dot", dotFile}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "witness cycle: [") {
		t.Fatalf("no witness printed for a directed ring:\n%s", out.String())
	}
	dot, err := os.ReadFile(dotFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "color=red") {
		t.Fatalf("DOT output highlights no witness cycle:\n%s", dot)
	}
}
