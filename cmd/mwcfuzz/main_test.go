package main

import (
	"reflect"
	"strings"
	"testing"

	"congestmwc"
)

// TestAlgosDefaultIsRegistry: with no -algos flag the soak runs every
// registered algorithm, and named subsets parse and validate against the
// registry.
func TestAlgosDefaultIsRegistry(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := congestmwc.AlgorithmNames(); !reflect.DeepEqual(cfg.algos, want) {
		t.Fatalf("-algos default = %v, want every registered algorithm %v", cfg.algos, want)
	}
	cfg, err = parseFlags([]string{"-algos", " exact, approx "})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{congestmwc.AlgoNameExact, congestmwc.AlgoNameApprox}; !reflect.DeepEqual(cfg.algos, want) {
		t.Fatalf("-algos subset = %v, want %v", cfg.algos, want)
	}
	for _, bad := range []string{"nope", ","} {
		if _, err := parseFlags([]string{"-algos", bad}); err == nil || !strings.Contains(err.Error(), "-algos") {
			t.Errorf("-algos %q: err = %v, want a descriptive -algos error", bad, err)
		}
	}
}
