package lb

import (
	"fmt"

	"congestmwc/internal/congest"
	"congestmwc/internal/exact"
	"congestmwc/internal/obs"
)

// Measurement is the outcome of running an algorithm on a lower-bound
// instance with the Alice/Bob cut metered.
type Measurement struct {
	// Weight/Found: the algorithm's answer.
	Weight int64
	Found  bool
	// Intersects is the disjointness decision implied by the answer
	// (weight < Heavy means the sets intersect).
	Intersects bool
	// Rounds consumed by the algorithm.
	Rounds int
	// CutWords is the number of words that crossed the Alice/Bob cut;
	// TranscriptBits = 64 * CutWords is the implied two-party transcript.
	CutWords       int
	TranscriptBits int
	// ImpliedRounds = ceil(CutWords / (CutEdges * B)) is the number of
	// rounds this much cut traffic needs at full cut bandwidth — the
	// quantity the reduction lower-bounds by Omega(Bits / (C*B*wordbits)).
	ImpliedRounds int
	// CutPerRound is the cut traffic round by round (element i is the
	// words that crossed the cut in round i+1) — the paper's Section-5
	// communication-over-time measurement. PeakCutWords is its maximum.
	CutPerRound  []int
	PeakCutWords int
}

// Algorithm runs an MWC computation on a prepared network and returns the
// computed weight.
type Algorithm func(net *congest.Network) (weight int64, found bool, err error)

// ExactMWC is the Algorithm wrapper for the exact APSP-based baseline, run
// on the baselines' schedule (exact.Spec.PaperSchedule).
func ExactMWC(net *congest.Network) (int64, bool, error) {
	res, err := exact.MWC(net, exact.Spec{PaperSchedule: true})
	if err != nil {
		return 0, false, err
	}
	return res.Weight, res.Found, nil
}

// Measure runs algo on the instance with the cut metered.
func Measure(inst *Instance, opts congest.Options, algo Algorithm) (*Measurement, error) {
	net, err := congest.NewNetwork(inst.Graph, opts)
	if err != nil {
		return nil, fmt.Errorf("lb: %w", err)
	}
	net.MeterCut(inst.Side)
	col := &obs.Collector{NoPerTag: true, NoPerLink: true}
	net.SetObserver(col)
	w, found, err := algo(net)
	if err != nil {
		return nil, fmt.Errorf("lb: algorithm: %w", err)
	}
	stats := net.Stats()
	b := net.Options().Bandwidth
	implied := 0
	if inst.CutEdges > 0 {
		// Each of the CutEdges edges carries at most B words per round in
		// each direction.
		den := 2 * inst.CutEdges * b
		implied = (stats.CutWords + den - 1) / den
	}
	cutPerRound := col.CutSeries()
	peak := 0
	for _, c := range cutPerRound {
		if c > peak {
			peak = c
		}
	}
	return &Measurement{
		Weight:         w,
		Found:          found,
		Intersects:     found && w < inst.Heavy,
		Rounds:         stats.Rounds,
		CutWords:       stats.CutWords,
		TranscriptBits: 64 * stats.CutWords,
		ImpliedRounds:  implied,
		CutPerRound:    cutPerRound,
		PeakCutWords:   peak,
	}, nil
}
