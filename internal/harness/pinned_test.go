package harness

import (
	"fmt"
	"sort"
	"testing"
)

// TestPaperSurfacesPinned pins the model cost of every Table 1 row at one
// small size and seed: rounds, messages, words and the approximation ratio
// (which fixes the reported weight) of each upper-bound row, and the cut
// words and rounds of each lower-bound row. These are the figures
// `mwcbench -exp all` prints; an optimisation of the served algorithms must
// leave them alone, so a change here is a change to the reproduction.
func TestPaperSurfacesPinned(t *testing.T) {
	const n, seed = 32, 1
	wantUB := map[Experiment]string{
		ExpDirected2Approx:  "rounds=2156 messages=91986 words=349666 ratio=1.000000",
		ExpDirectedExact:    "rounds=43 messages=6412 words=18841 ratio=1.000000",
		ExpDirectedW2Approx: "rounds=38844 messages=236298 words=804283 ratio=1.000000",
		ExpGirthApprox:      "rounds=88 messages=14230 words=49405 ratio=1.000000",
		ExpGirthExact:       "rounds=75 messages=12022 words=41677 ratio=1.000000",
		ExpGirthPRT:         "rounds=75 messages=11984 words=41563 ratio=1.000000",
		ExpUndirW2Approx:    "rounds=23296 messages=174708 words=596526 ratio=1.000000",
		ExpUndirWExact:      "rounds=77 messages=12346 words=42773 ratio=1.000000",
		ExpKSourceBFS:       "rounds=763 messages=29642 words=112263 ratio=1.000000",
		ExpKSourceSSSP:      "rounds=2520 messages=54452 words=186521 ratio=1.043478",
	}
	wantLB := map[Experiment]string{
		ExpDirectedLB2: "cutWords=291 rounds=26",
		ExpDirectedLBA: "cutWords=465 rounds=40",
		ExpGirthLBA:    "cutWords=22383 rounds=638",
		ExpUndirWLB2:   "cutWords=2358 rounds=49",
	}
	var ids []Experiment
	for id := range UpperBounds() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		res, err := UpperBounds()[id].Run(n, seed)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := fmt.Sprintf("rounds=%d messages=%d words=%d ratio=%.6f", res.Rounds, res.Messages, res.Words, res.Ratio)
		if want := wantUB[id]; got != want {
			t.Errorf("%s: got %s, want %s", id, got, want)
		}
	}
	ids = ids[:0]
	for id := range LowerBounds() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		res, err := RunLowerBound(LowerBounds()[id], 4, 7)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := fmt.Sprintf("cutWords=%d rounds=%d", res.CutWords, res.MeasuredRounds)
		if want := wantLB[id]; got != want {
			t.Errorf("%s: got %s, want %s", id, got, want)
		}
	}
}
