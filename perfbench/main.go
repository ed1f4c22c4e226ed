// Command perfbench is the repository's end-to-end benchmark. It drives the
// congestmwc facade, the jobs service with its HTTP handler, the durable
// store and dynamic sessions in-process (no sockets, one jobs worker, the
// sequential engine), checks every answer against congestmwc.ReferenceMWC,
// and prints one JSON result line:
//
//	perfbench -workload approx-classes -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separately traced pass. See README.md
// for the workloads, the metrics and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its set-up from scratch;
// setup_s is the median, and the last set-up serves the timed pass.
const setupRepeats = 5

// workdir, relative to the checkout root the benchmark runs from, holds
// the trace files; storeRoot holds the store directories of a run. run.sh
// mounts a private tmpfs on storeRoot where it can, so fsync costs the
// program's work and not the host disk's latency.
const (
	workdir   = ".bench_build/work"
	storeRoot = ".bench_build/stores"
)

// lateBoundMs caps the open-loop generator's p99 lateness: a run beyond it
// did not offer the planned schedule and is reported invalid.
const lateBoundMs = 25

// segmentCount is how many consecutive segments a timed pass is cut into.
// Latency, throughput and CPU figures are taken per segment and reported
// as the median over the segments, so a burst of CPU stolen from the
// machine during one segment does not move them.
const segmentCount = 6

// config is what every workload plans from.
type config struct {
	seed    int64
	seconds int
	dir     string // this run's directory, for store directories
}

// workload is one benchmark scenario. prepare generates the seeded plan and
// every reference answer (untimed); setup builds the instances through the
// program's API, opens the serving stack and warms up (timed as setup_s);
// pass runs the planned ops once and checks them, traced when tr != nil;
// attribute re-simulates the pass's simulated runs under an obs.Collector
// (trace mode only); teardown closes whatever setup opened.
type workload interface {
	prepare(cfg config) error
	setup(dir string) error
	pass(tr *tracer) (*passResult, error)
	attribute(tr *tracer) error
	teardown() error
}

var workloads = map[string]func() workload{
	"approx-classes": func() workload { return &approxClasses{} },
	"jobs-mixed":     func() workload { return &jobsMixed{} },
	"session-churn":  func() workload { return &sessionChurn{} },
}

// procs is each workload's GOMAXPROCS. session-churn runs on one P: a
// recompute hands off from the client to the session's recompute loop to
// the jobs worker and back, and on a 2-vCPU VM a hand-off to the other
// thread can wait for the host to wake an idle vCPU. Back to back on the
// same seeds, two Ps ran 300-320 ops/s and one P 510-570 ops/s. The open
// loop of jobs-mixed needs a second P to accept arrivals while a job runs.
var procs = map[string]int{"approx-classes": 2, "jobs-mixed": 2, "session-churn": 1}

// passResult is one timed pass over a workload's planned ops.
type passResult struct {
	ops int
	lat []float64 // latency per sample, ms
	// opsPerSample is how many ops one latency sample times (0 means 1):
	// throughput and CPU figures count ops, not samples.
	opsPerSample int
	late         []float64 // open loop: send time minus scheduled time, ms
	meter        reading
	failed       int
	failures     []string // the first few failure descriptions
	invalid      []string // mix-validity violations: the run measured another mix
	rounds       int64    // CONGEST rounds actually simulated
	messages     int64
	ratioMax     float64
	segs         []segment
	note         string // workload-specific diagnostics for stderr
}

// segment is one consecutive slice of a pass: the latency samples
// lat[from:to] and the wall and CPU time between its boundary marks.
type segment struct {
	from, to     int
	elapsed, cpu time.Duration
}

// segmenter records the wall clock and process CPU at the segment
// boundaries of a pass of ops ops.
type segmenter struct {
	bounds []int // op index where segment k starts; the last is ops
	t      []time.Time
	cpu    []time.Duration
}

func newSegmenter(ops int) *segmenter {
	s := &segmenter{}
	for k := 0; k <= segmentCount; k++ {
		s.bounds = append(s.bounds, k*ops/segmentCount)
	}
	return s
}

// mark is called before op i starts, and with i = ops once the last op
// has finished.
func (s *segmenter) mark(i int) {
	for len(s.t) < len(s.bounds) && i == s.bounds[len(s.t)] {
		s.t = append(s.t, time.Now())
		s.cpu = append(s.cpu, processCPU())
	}
}

// cut turns the marks into segments; first[k] is the index in lat of the
// first sample of segment k's ops, and samples is len(lat).
func (s *segmenter) cut(first []int, samples int) []segment {
	segs := make([]segment, segmentCount)
	for k := range segs {
		to := samples
		if k+1 < segmentCount {
			to = first[k+1]
		}
		segs[k] = segment{from: first[k], to: to, elapsed: s.t[k+1].Sub(s.t[k]), cpu: s.cpu[k+1] - s.cpu[k]}
	}
	return segs
}

// timings are the per-segment medians of a pass.
type timings struct {
	p50, tail, throughput, cpuPerOp float64
	tailPct                         float64 // the tail percentile of a segment
	beyond                          int     // samples beyond it
}

func (p *passResult) timings() timings {
	var p50, tail, tput, cpu []float64
	var t timings
	for _, sg := range p.segs {
		lat := p.lat[sg.from:sg.to]
		n := float64(len(lat) * max(p.opsPerSample, 1))
		t.tailPct = tailPercentile(len(lat))
		t.beyond = beyond(len(lat), t.tailPct)
		p50 = append(p50, percentile(lat, 50))
		tail = append(tail, percentile(lat, t.tailPct))
		tput = append(tput, n/sg.elapsed.Seconds())
		cpu = append(cpu, 1e3*sg.cpu.Seconds()/n)
	}
	t.p50, t.tail, t.throughput, t.cpuPerOp = median(p50), median(tail), median(tput), median(cpu)
	return t
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func (p *passResult) invalidf(format string, args ...any) {
	p.invalid = append(p.invalid, fmt.Sprintf(format, args...))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: approx-classes | jobs-mixed | session-churn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "planned length of the timed pass; sets the fixed op count")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (approx-classes | jobs-mixed | session-churn), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	// Load comes from one process with at most two runnable threads;
	// measure narrows this to the workload's procs after prepare.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	dir, err := os.MkdirTemp(ensureDir(storeRoot), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if !onTmpfs(dir) {
		fmt.Fprintf(os.Stderr, "perfbench: %s is not on a tmpfs: store latency includes the disk's fsync\n", storeRoot)
	}
	cfg := config{seed: *seed, seconds: *seconds, dir: dir}
	out, err := measure(mk(), *name, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// onTmpfs reports whether dir is on a tmpfs, where fsync writes nothing.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// measure prepares the workload, times setupRepeats set-ups, runs the
// untraced pass and, in trace mode, a traced pass plus the attribution
// re-simulation.
func measure(w workload, name string, cfg config, traced bool) (*output, error) {
	if err := w.prepare(cfg); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	runtime.GOMAXPROCS(min(procs[name], runtime.NumCPU()))
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	base, err := w.pass(nil)
	if err != nil {
		return nil, fmt.Errorf("pass: %w", err)
	}
	checkLateness(base)
	if err := w.teardown(); err != nil {
		return nil, err
	}
	report(name, "untraced", base)
	out := &output{
		Correct:   base.failed == 0 && len(base.invalid) == 0,
		Attempted: base.ops,
		Failed:    base.failed,
	}
	if !traced {
		out.Metrics = endToEnd(base, setups)
		return out, nil
	}

	tr := newTracer()
	runtime.GC()
	if err := w.setup(filepath.Join(cfg.dir, "traced")); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	tp, err := w.pass(tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	checkLateness(tp)
	if err := w.teardown(); err != nil {
		return nil, err
	}
	report(name, "traced", tp)
	if err := w.attribute(tr); err != nil {
		return nil, fmt.Errorf("attribute: %w", err)
	}
	out.Correct = out.Correct && tp.failed == 0 && len(tp.invalid) == 0
	out.Metrics = perLayer(tr, base, tp)
	traces := ensureDir(filepath.Join(workdir, "traces"))
	if err := tr.writeSpans(filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))); err != nil {
		return nil, err
	}
	return out, nil
}

func checkLateness(p *passResult) {
	if late := percentile(p.late, 99); late > lateBoundMs {
		p.invalidf("load generator p99 lateness %.2fms exceeds %dms", late, lateBoundMs)
	}
}

// report prints a pass summary to stderr (the result line is stdout's last).
func report(name, mode string, p *passResult) {
	w := os.Stderr
	t := p.timings()
	fmt.Fprintf(w, "perfbench: %s %s: %d ops in %.2fs; segment medians: p50 %.3fms, p%g %.3fms (%d of %d samples beyond), %.2f ops/s, cpu %.3fms/op; failed %d\n",
		name, mode, p.ops, p.meter.elapsed.Seconds(), t.p50, t.tailPct, t.tail, t.beyond, len(p.lat)/segmentCount,
		t.throughput, t.cpuPerOp, p.failed)
	if p.note != "" {
		fmt.Fprintf(w, "perfbench: %s %s: %s\n", name, mode, p.note)
	}
	fmt.Fprintf(w, "perfbench: %s %s: per segment p50/tail/cpu ms:", name, mode)
	for _, sg := range p.segs {
		lat := p.lat[sg.from:sg.to]
		fmt.Fprintf(w, " %.3f/%.2f/%.3f", percentile(lat, 50), percentile(lat, t.tailPct), 1e3*sg.cpu.Seconds()/float64(len(lat)*max(p.opsPerSample, 1)))
	}
	fmt.Fprintln(w)
	for _, f := range p.failures {
		fmt.Fprintln(w, "perfbench: failure:", f)
	}
	for _, v := range p.invalid {
		fmt.Fprintln(w, "perfbench: invalid mix:", v)
	}
}

func endToEnd(p *passResult, setups []float64) map[string]metric {
	ops := float64(p.ops)
	t := p.timings()
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {t.throughput, "1/s"},
		"latency_p50_ms":   {t.p50, "ms"},
		"latency_tail_ms":  {t.tail, "ms"},
		"cpu_ms_per_op":    {t.cpuPerOp, "ms"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"rounds_per_op":    {float64(p.rounds) / ops, "count"},
		"messages_per_op":  {float64(p.messages) / ops, "count"},
		"ratio_max":        {p.ratioMax, "ratio"},
	}
}

// reading is what a meter measured over a timed pass.
type reading struct {
	elapsed time.Duration
	cpu     time.Duration // process user+sys
	allocs  uint64        // bytes allocated
	gcs     uint32
	gcPause time.Duration
}

// meter brackets a timed pass: wall clock, process CPU (getrusage) and the
// Go runtime's allocation and GC counters.
type meter struct {
	start time.Time
	cpu   time.Duration
	ms    runtime.MemStats
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = processCPU()
	m.start = time.Now()
	return m
}

func (m *meter) stop() reading {
	elapsed := time.Since(m.start)
	cpu := processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return reading{
		elapsed: elapsed,
		cpu:     cpu - m.cpu,
		allocs:  ms.TotalAlloc - m.ms.TotalAlloc,
		gcs:     ms.NumGC - m.ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs),
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tailPercentile is the highest of the usual percentiles with at least ten
// samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99.5, 99, 98, 97.5, 95, 90, 75} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// beyond is the number of samples strictly above the nearest-rank
// percentile p of n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p) - 1
}

func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
