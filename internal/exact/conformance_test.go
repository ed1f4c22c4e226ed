package exact

import (
	"testing"

	"congestmwc/internal/conformance"
	"congestmwc/internal/congest"
)

func TestConformanceAllClasses(t *testing.T) {
	algo := func(net *congest.Network) (int64, bool, error) {
		res, err := MWC(net, Spec{})
		if err != nil {
			return 0, false, err
		}
		return res.Weight, res.Found, nil
	}
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			directed, weighted := directed, weighted
			t.Run(conformance.Describe(directed, weighted), func(t *testing.T) {
				conformance.Check(t, directed, weighted, algo, 1, 0, 3)
			})
		}
	}
}
