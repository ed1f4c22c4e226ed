// Command mwcreplay generates and replays JSONL workload traces against a
// live mwcd daemon or mwcrouter front-end, exercising the dynamic graph
// session API (POST/PATCH/GET /v1/graphs) under realistic arrival
// processes and reporting latency percentiles, throughput, and
// witness-kept / cache hit rates.
//
// Generate a trace (deterministic under -seed):
//
//	mwcreplay -generate trace.jsonl -sessions 4 -span 10s -rate 4 \
//	    -classes uw,dw,ud -offwitness 0.6 -burst 3 -seed 1
//
// Replay it against a running server:
//
//	mwcreplay -trace trace.jsonl -base http://127.0.0.1:8356
//
// A trace is one JSON event per line, each stamped with a millisecond
// offset from trace start: open (a full job spec), patch (a batch of edge
// ops), query (a long-polled MWC read), close. Arrivals are Poisson per
// session; -burst N multiplies the rate in the middle half of the span so
// the queue sees both trickle and pile-up. Sessions over weighted classes
// interleave provably answer-preserving mutations (reweight-up or heavy
// insert/delete off the planted witness triangle) with invalidating ones
// at the -offwitness fraction; each answer-preserving patch is annotated
// offWitness:true in the trace and the replay HARD-FAILS if the server
// does not absorb it with witnessKept:true — that is the witness-scoped
// invalidation contract, not a tunable.
//
// The replay report prints p50/p90/p99 latency per event kind, event
// throughput, the witness-kept and invalidation split from PATCH
// responses, the clean-on-arrival rate for queries, and (when the target
// exposes mwcd_session_* series on /metrics — mwcd does, the router does
// not) the server-side cached-answer and recompute deltas. The report is
// for reading, not gating: the session hot paths are gated as
// BenchmarkSessionHotPath figures (bench/session_hotpath.json).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"congestmwc/internal/jobs"
	"congestmwc/internal/session"
)

// traceEvent is one line of a JSONL trace.
type traceEvent struct {
	// AtMS is the event's offset from trace start, in milliseconds.
	AtMS int64 `json:"atMs"`
	// Kind is open | patch | query | close.
	Kind string `json:"kind"`
	// Session is the trace-local session name; the replay engine maps it
	// to the server-assigned ID from the open response.
	Session string `json:"session"`
	// Spec is the job spec opening the session (kind open).
	Spec *jobs.Spec `json:"spec,omitempty"`
	// Ops is the PATCH batch (kind patch).
	Ops []session.Op `json:"ops,omitempty"`
	// OffWitness marks a patch whose every op is answer-preserving by
	// construction; the server must absorb it with zero simulation.
	OffWitness bool `json:"offWitness,omitempty"`
	// WaitMS is the long-poll budget for a query.
	WaitMS int64 `json:"waitMs,omitempty"`
}

func main() {
	var (
		generate   = flag.String("generate", "", "write a generated trace to this path and exit")
		sessions   = flag.Int("sessions", 4, "sessions in a generated trace")
		span       = flag.Duration("span", 10*time.Second, "generated trace duration")
		rate       = flag.Float64("rate", 4, "mean mutation arrivals per second per session (Poisson)")
		burst      = flag.Float64("burst", 1, "rate multiplier in the middle half of the span (1 = steady)")
		classes    = flag.String("classes", "uw,dw,ud", "comma-separated graph classes to cycle sessions through")
		offWitness = flag.Float64("offwitness", 0.6, "fraction of weighted-class mutations that are answer-preserving")
		seed       = flag.Int64("seed", 1, "trace generator seed")

		trace = flag.String("trace", "", "replay this JSONL trace")
		base  = flag.String("base", "http://127.0.0.1:8356", "base URL of the mwcd or mwcrouter to replay against")
		speed = flag.Float64("speed", 1, "replay time scale (2 = twice as fast as recorded)")
	)
	flag.Parse()

	switch {
	case *generate != "":
		if err := runGenerate(*generate, genConfig{
			sessions: *sessions, span: *span, rate: *rate, burst: *burst,
			classes: strings.Split(*classes, ","), offWitness: *offWitness, seed: *seed,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "mwcreplay:", err)
			os.Exit(1)
		}
	case *trace != "":
		if err := runReplay(*trace, *base, *speed); err != nil {
			fmt.Fprintln(os.Stderr, "mwcreplay:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "mwcreplay: one of -generate or -trace is required")
		flag.Usage()
		os.Exit(2)
	}
}

// ---------------------------------------------------------------- generate

type genConfig struct {
	sessions   int
	span       time.Duration
	rate       float64
	burst      float64
	classes    []string
	offWitness float64
	seed       int64
}

// sessGraph tracks one generated session's evolving edge set so every
// emitted op is valid (no duplicate inserts, no deletes of absent edges,
// the communication network stays connected) and so answer-preserving ops
// can be told apart from invalidating ones.
//
// Weighted sessions plant the witness: a unit triangle 0-1-2 and a heavy
// ring 2-3-...-(n-1)-0 (weight 16 per edge), so the MWC is the triangle at
// weight 3 no matter what happens to the ring. Reweighting a ring edge
// upward, inserting a weight-64 chord (heavier than any possible cached
// answer: the triangle never exceeds 3*16), or deleting such a chord are
// all provably answer-preserving; touching the triangle invalidates.
// Unweighted classes cannot plant an off-girth mutation surface the same
// way (every insert weighs 1), so their streams are plain valid mutations
// with no offWitness annotation.
type sessGraph struct {
	name     string
	class    string
	directed bool
	weighted bool
	n        int
	edges    map[[2]int]int64
	chords   [][2]int // live heavy chords, deletable off-witness
}

func (g *sessGraph) key(u, v int) [2]int {
	if !g.directed && u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (g *sessGraph) sortedKeys() [][2]int {
	keys := make([][2]int, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// connectedWithout reports whether the underlying undirected graph stays
// connected after removing one edge.
func (g *sessGraph) connectedWithout(skip [2]int) bool {
	adj := make([][]int, g.n)
	for k := range g.edges {
		if k == skip {
			continue
		}
		adj[k[0]] = append(adj[k[0]], k[1])
		adj[k[1]] = append(adj[k[1]], k[0])
	}
	seen := make([]bool, g.n)
	seen[0] = true
	queue := []int{0}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == g.n
}

const (
	ringWeight  = 16
	chordWeight = 64 // > 3*ringWeight, heavier than any reachable cached answer
)

// newSessGraph plants the base instance and returns it with the job spec
// that opens it.
func newSessGraph(rng *rand.Rand, name, class string) (*sessGraph, jobs.Spec) {
	g := &sessGraph{
		name:     name,
		class:    class,
		directed: class == "d" || class == "dw",
		weighted: class == "uw" || class == "dw",
		edges:    make(map[[2]int]int64),
	}
	g.n = 8 + rng.Intn(9)
	w := func(heavy int64) int64 {
		if g.weighted {
			return heavy
		}
		return 1
	}
	// Witness triangle 0->1->2->0 at unit weight.
	g.edges[g.key(0, 1)] = 1
	g.edges[g.key(1, 2)] = 1
	g.edges[g.key(2, 0)] = 1
	// Heavy outer ring 2->3->...->(n-1)->0 closing through the triangle.
	for u := 2; u < g.n-1; u++ {
		g.edges[g.key(u, u+1)] = w(ringWeight)
	}
	g.edges[g.key(g.n-1, 0)] = w(ringWeight)

	keys := g.sortedKeys()
	edges := make([]jobs.Edge, len(keys))
	for i, k := range keys {
		edges[i] = jobs.Edge{From: k[0], To: k[1], Weight: g.edges[k]}
	}
	spec := jobs.Spec{
		Graph: jobs.GraphSpec{Class: class, N: g.n, Edges: edges},
		Algo:  jobs.AlgoExact,
	}
	return g, spec
}

// offWitnessOps emits one answer-preserving op batch on a weighted
// session: reweight a ring edge upward, insert a heavy chord, or delete a
// live chord.
func (g *sessGraph) offWitnessOps(rng *rand.Rand) []session.Op {
	switch pick := rng.Intn(10); {
	case pick < 2 && len(g.chords) > 0:
		i := rng.Intn(len(g.chords))
		k := g.chords[i]
		g.chords = append(g.chords[:i], g.chords[i+1:]...)
		delete(g.edges, k)
		return []session.Op{{Op: session.OpDelete, From: k[0], To: k[1]}}
	case pick < 5:
		// A chord between ring-interior vertices; weight 64 means every
		// cycle through it is heavier than any cached answer.
		for try := 0; try < 32; try++ {
			u, v := 3+rng.Intn(g.n-3), 3+rng.Intn(g.n-3)
			if u == v {
				continue
			}
			k := g.key(u, v)
			if _, exists := g.edges[k]; exists {
				continue
			}
			g.edges[k] = chordWeight
			g.chords = append(g.chords, k)
			return []session.Op{{Op: session.OpInsert, From: k[0], To: k[1], Weight: chordWeight}}
		}
		fallthrough
	default:
		// Reweight a ring edge upward — monotone, never exhausts.
		u := 2 + rng.Intn(g.n-2)
		k := g.key(u, (u+1)%g.n)
		g.edges[k] += 1 + rng.Int63n(8)
		return []session.Op{{Op: session.OpReweight, From: k[0], To: k[1], Weight: g.edges[k]}}
	}
}

// mutatingOps emits one valid op batch with no answer-preservation
// guarantee: on weighted sessions it perturbs the witness triangle; on
// unweighted ones it inserts or (connectivity permitting) deletes.
func (g *sessGraph) mutatingOps(rng *rand.Rand) []session.Op {
	if g.weighted {
		tri := [][2]int{g.key(0, 1), g.key(1, 2), g.key(2, 0)}
		k := tri[rng.Intn(3)]
		g.edges[k] = 1 + rng.Int63n(ringWeight)
		return []session.Op{{Op: session.OpReweight, From: k[0], To: k[1], Weight: g.edges[k]}}
	}
	if rng.Intn(2) == 0 {
		for try := 0; try < 32; try++ {
			u, v := rng.Intn(g.n), rng.Intn(g.n)
			if u == v {
				continue
			}
			k := g.key(u, v)
			if _, exists := g.edges[k]; exists {
				continue
			}
			g.edges[k] = 1
			return []session.Op{{Op: session.OpInsert, From: k[0], To: k[1], Weight: 1}}
		}
	}
	keys := g.sortedKeys()
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if g.connectedWithout(k) {
			delete(g.edges, k)
			return []session.Op{{Op: session.OpDelete, From: k[0], To: k[1]}}
		}
	}
	return nil
}

// runGenerate writes a JSONL trace: per session, an open event, a Poisson
// stream of patch+query pairs (bursty in the middle half when -burst > 1),
// a final query and a close.
func runGenerate(path string, cfg genConfig) error {
	if cfg.sessions <= 0 || cfg.rate <= 0 || cfg.span <= 0 {
		return fmt.Errorf("generate: -sessions, -rate and -span must be positive")
	}
	if cfg.burst < 1 {
		cfg.burst = 1
	}
	for _, c := range cfg.classes {
		switch c {
		case "ud", "d", "uw", "dw":
		default:
			return fmt.Errorf("generate: unknown class %q (want ud, d, uw or dw)", c)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	spanMS := cfg.span.Milliseconds()
	var events []traceEvent
	offPatches, totalPatches := 0, 0

	for i := 0; i < cfg.sessions; i++ {
		class := cfg.classes[i%len(cfg.classes)]
		name := fmt.Sprintf("sess-%d", i)
		g, spec := newSessGraph(rng, name, class)

		// Stagger opens across the first quarter of the span.
		t := rng.Int63n(spanMS/4 + 1)
		events = append(events,
			traceEvent{AtMS: t, Kind: "open", Session: name, Spec: &spec},
			traceEvent{AtMS: t + 1, Kind: "query", Session: name, WaitMS: 10000},
		)
		for {
			// Poisson arrivals: exponential inter-arrival at -rate, scaled
			// up by -burst in the middle half of the span.
			r := cfg.rate
			if t > spanMS*3/8 && t < spanMS*5/8 {
				r *= cfg.burst
			}
			t += int64(rng.ExpFloat64() / r * 1000)
			if t >= spanMS {
				break
			}
			var ops []session.Op
			off := false
			if g.weighted && rng.Float64() < cfg.offWitness {
				ops, off = g.offWitnessOps(rng), true
			} else {
				ops = g.mutatingOps(rng)
			}
			if len(ops) == 0 {
				continue
			}
			totalPatches++
			if off {
				offPatches++
			}
			events = append(events,
				traceEvent{AtMS: t, Kind: "patch", Session: name, Ops: ops, OffWitness: off},
				traceEvent{AtMS: t + 1, Kind: "query", Session: name, WaitMS: 10000},
			)
		}
		events = append(events,
			traceEvent{AtMS: spanMS + int64(i), Kind: "query", Session: name, WaitMS: 30000},
			traceEvent{AtMS: spanMS + int64(i) + 1, Kind: "close", Session: name},
		)
	}

	sort.SliceStable(events, func(i, j int) bool { return events[i].AtMS < events[j].AtMS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	frac := 0.0
	if totalPatches > 0 {
		frac = float64(offPatches) / float64(totalPatches)
	}
	fmt.Printf("mwcreplay: wrote %d events (%d sessions, %d patches, %.0f%% off-witness) to %s\n",
		len(events), cfg.sessions, totalPatches, 100*frac, path)
	return nil
}

// ------------------------------------------------------------------ replay

// sample is one timed request.
type sample struct {
	kind    string
	latency time.Duration
}

// replayStats accumulates samples and counters across session goroutines.
type replayStats struct {
	mu           sync.Mutex
	samples      []sample
	witnessKept  int
	invalidated  int
	offKept      int
	offBroken    []string
	cleanArrival int
	polledClean  int
	errs         []string
}

func (st *replayStats) add(kind string, d time.Duration) {
	st.mu.Lock()
	st.samples = append(st.samples, sample{kind, d})
	st.mu.Unlock()
}

func (st *replayStats) errf(format string, args ...any) {
	st.mu.Lock()
	st.errs = append(st.errs, fmt.Sprintf(format, args...))
	st.mu.Unlock()
}

// runReplay drives the trace against the base URL and prints the report.
func runReplay(path, base string, speed float64) error {
	if speed <= 0 {
		return fmt.Errorf("replay: -speed must be positive")
	}
	events, err := loadTrace(path)
	if err != nil {
		return err
	}
	bySession := make(map[string][]traceEvent)
	var order []string
	for _, ev := range events {
		if _, seen := bySession[ev.Session]; !seen {
			order = append(order, ev.Session)
		}
		bySession[ev.Session] = append(bySession[ev.Session], ev)
	}

	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: 60 * time.Second}
	before := scrapeSessionMetrics(client, base)

	st := &replayStats{}
	start := time.Now()
	var wg sync.WaitGroup
	for _, name := range order {
		wg.Add(1)
		go func(evs []traceEvent) {
			defer wg.Done()
			replaySession(client, base, evs, start, speed, st)
		}(bySession[name])
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := scrapeSessionMetrics(client, base)

	report(os.Stdout, st, elapsed, base, before, after)
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.errs) > 0 {
		return fmt.Errorf("replay: %d requests failed; first: %s", len(st.errs), st.errs[0])
	}
	if len(st.offBroken) > 0 {
		return fmt.Errorf("replay: %d off-witness patches were NOT absorbed witness-kept; first: %s",
			len(st.offBroken), st.offBroken[0])
	}
	return nil
}

func loadTrace(path string) ([]traceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []traceEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var ev traceEvent
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("%s: empty trace", path)
	}
	return events, nil
}

// replaySession executes one session's events in recorded order, pacing
// each to its AtMS offset (scaled by -speed).
func replaySession(client *http.Client, base string, evs []traceEvent, start time.Time, speed float64, st *replayStats) {
	id := "" // server-assigned, learned from the open response
	for _, ev := range evs {
		due := start.Add(time.Duration(float64(ev.AtMS)/speed) * time.Millisecond)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		switch ev.Kind {
		case "open":
			body, _ := json.Marshal(ev.Spec)
			t0 := time.Now()
			var status session.Status
			code, err := doJSON(client, http.MethodPost, base+"/v1/graphs", body, &status)
			st.add("open", time.Since(t0))
			if err != nil || code != http.StatusCreated {
				st.errf("%s open: code %d err %v", ev.Session, code, err)
				return // nothing downstream can run without the ID
			}
			id = status.ID
		case "patch":
			if id == "" {
				return
			}
			body, _ := json.Marshal(session.PatchRequest{Ops: ev.Ops})
			t0 := time.Now()
			var res session.PatchResult
			code, err := doJSON(client, http.MethodPatch, base+"/v1/graphs/"+id, body, &res)
			st.add("patch", time.Since(t0))
			if err != nil || code != http.StatusOK {
				st.errf("%s patch: code %d err %v", ev.Session, code, err)
				continue
			}
			st.mu.Lock()
			if res.WitnessKept {
				st.witnessKept++
			} else {
				st.invalidated++
			}
			if ev.OffWitness {
				if res.WitnessKept {
					st.offKept++
				} else {
					st.offBroken = append(st.offBroken,
						fmt.Sprintf("%s@%dms ops %+v", ev.Session, ev.AtMS, ev.Ops))
				}
			}
			st.mu.Unlock()
		case "query":
			if id == "" {
				return
			}
			wait := ev.WaitMS
			if wait <= 0 {
				wait = 5000
			}
			t0 := time.Now()
			deadline := t0.Add(60 * time.Second)
			first := true
			for {
				var status session.Status
				code, err := doJSON(client, http.MethodGet,
					fmt.Sprintf("%s/v1/graphs/%s/mwc?wait=%dms", base, id, wait), nil, &status)
				if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
					st.errf("%s query: code %d err %v", ev.Session, code, err)
					break
				}
				if code == http.StatusOK {
					st.add("query", time.Since(t0))
					st.mu.Lock()
					if first {
						st.cleanArrival++
					} else {
						st.polledClean++
					}
					st.mu.Unlock()
					break
				}
				first = false
				if time.Now().After(deadline) {
					st.errf("%s query: still computing after 60s", ev.Session)
					break
				}
			}
		case "close":
			if id == "" {
				return
			}
			t0 := time.Now()
			code, err := doJSON(client, http.MethodDelete, base+"/v1/graphs/"+id, nil, nil)
			st.add("close", time.Since(t0))
			if err != nil || code != http.StatusOK {
				st.errf("%s close: code %d err %v", ev.Session, code, err)
			}
		default:
			st.errf("%s: unknown event kind %q", ev.Session, ev.Kind)
		}
	}
}

// doJSON issues one request and decodes the JSON response into out (when
// non-nil), returning the status code.
func doJSON(client *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// scrapeSessionMetrics pulls the mwcd_session_* counters from /metrics.
// The router does not aggregate session series; a missing endpoint or
// missing series yields an empty map and the report skips the delta line.
func scrapeSessionMetrics(client *http.Client, base string) map[string]float64 {
	out := make(map[string]float64)
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 4<<20))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "mwcd_session_") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out
}

// percentiles returns p50/p90/p99 of the kind's latencies plus the count.
func percentiles(samples []sample, kind string) (p50, p90, p99 time.Duration, n int) {
	var ds []time.Duration
	for _, s := range samples {
		if s.kind == kind {
			ds = append(ds, s.latency)
		}
	}
	if len(ds) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	at := func(p float64) time.Duration {
		i := int(math.Ceil(p*float64(len(ds)))) - 1
		if i < 0 {
			i = 0
		}
		return ds[i]
	}
	return at(0.50), at(0.90), at(0.99), len(ds)
}

// report prints the human-readable replay summary.
func report(w io.Writer, st *replayStats, elapsed time.Duration, base string, before, after map[string]float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fmt.Fprintf(w, "mwcreplay: replayed %d events in %.1fs against %s (%.1f events/s)\n",
		len(st.samples), elapsed.Seconds(), base, float64(len(st.samples))/elapsed.Seconds())
	for _, kind := range []string{"open", "patch", "query", "close"} {
		p50, p90, p99, n := percentiles(st.samples, kind)
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-5s %4d  p50 %8s  p90 %8s  p99 %8s\n",
			kind, n, p50.Round(time.Microsecond), p90.Round(time.Microsecond), p99.Round(time.Microsecond))
	}
	patches := st.witnessKept + st.invalidated
	if patches > 0 {
		fmt.Fprintf(w, "  patches: %d witness-kept (%.0f%%), %d invalidated; %d/%d annotated off-witness absorbed\n",
			st.witnessKept, 100*float64(st.witnessKept)/float64(patches), st.invalidated,
			st.offKept, st.offKept+len(st.offBroken))
	}
	queries := st.cleanArrival + st.polledClean
	if queries > 0 {
		fmt.Fprintf(w, "  queries: %d/%d clean within the first poll (%.0f%%)\n",
			st.cleanArrival, queries, 100*float64(st.cleanArrival)/float64(queries))
	}
	if d := metricsDelta(before, after); len(d) > 0 {
		fmt.Fprintf(w, "  server:  %s\n", d)
	} else {
		fmt.Fprintf(w, "  server:  no mwcd_session_* series at %s/metrics (router target?)\n", base)
	}
	if len(st.errs) > 0 {
		fmt.Fprintf(w, "  ERRORS: %d\n", len(st.errs))
		for i, e := range st.errs {
			if i == 5 {
				fmt.Fprintf(w, "    ... and %d more\n", len(st.errs)-5)
				break
			}
			fmt.Fprintf(w, "    %s\n", e)
		}
	}
}

// metricsDelta renders the interesting counter movements, empty when the
// target exposed no session series.
func metricsDelta(before, after map[string]float64) string {
	var parts []string
	for _, name := range []string{
		"mwcd_session_witness_kept_total",
		"mwcd_session_invalidations_total",
		"mwcd_session_recomputes_total",
		"mwcd_session_cached_answers_total",
	} {
		a, ok := after[name]
		if !ok {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s +%.0f",
			strings.TrimSuffix(strings.TrimPrefix(name, "mwcd_session_"), "_total"), a-before[name]))
	}
	return strings.Join(parts, "  ")
}
