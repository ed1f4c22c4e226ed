// Command mwcfuzz runs timed differential-fuzzing soaks over the
// internal/check oracle harness: it generates random instances of every
// graph class (round-robin, so slow classes cannot starve the others),
// runs the algorithm portfolio (-algos, default every registered
// algorithm, each on the instances in its range) against the sequential
// reference, and evaluates the full oracle registry on each outcome.
//
// On a violation the offending instance is delta-debugged down to a small
// reproducer, written as a graphio corpus file, appended to a JSONL
// failure log, and printed as a ready-to-paste Go test case. The process
// exits non-zero if any violation occurred.
//
// Before the soak, every corpus file under -corpus is replayed through
// the same oracles, so previously found (and regression-seeded) instances
// are re-checked on every run.
//
// Examples:
//
//	mwcfuzz -duration 60s
//	mwcfuzz -duration 10m -classes uw,dw -maxn 32 -seed 7
//	mwcfuzz -duration 5m -algos approx,exact
//	mwcfuzz -duration 0 -corpus testdata/corpus   # replay-only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"congestmwc"
	"congestmwc/internal/check"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mwcfuzz:", err)
		os.Exit(2)
	}
}

type config struct {
	duration time.Duration
	seed     int64
	classes  string
	maxN     int
	corpus   string
	failDir  string
	algos    []string
	parallel bool
	cancel   bool
	session  bool
	verbose  bool
}

// failureRecord is one JSONL line in the failure log.
type failureRecord struct {
	Time     string `json:"time"`
	Class    string `json:"class"`
	Shape    string `json:"shape"`
	Oracle   string `json:"oracle"`
	Detail   string `json:"detail"`
	Seed     int64  `json:"seed"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	MinN     int    `json:"min_n"`
	MinM     int    `json:"min_m"`
	File     string `json:"file"`
	Replayed bool   `json:"replayed,omitempty"`
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	classes, err := parseClasses(cfg.classes)
	if err != nil {
		return err
	}
	if cfg.seed == 0 {
		cfg.seed = time.Now().UnixNano()
	}
	fmt.Printf("mwcfuzz: seed=%d classes=%s algos=%s maxn=%d duration=%s\n",
		cfg.seed, cfg.classes, strings.Join(cfg.algos, ","), cfg.maxN, cfg.duration)

	f := &fuzzer{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed))}
	if err := f.replayCorpus(); err != nil {
		return err
	}
	if cfg.duration > 0 {
		f.soak(classes)
	}
	f.report()
	if f.failures > 0 {
		os.Exit(1)
	}
	return nil
}

// parseFlags parses the command line into a config.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("mwcfuzz", flag.ContinueOnError)
	cfg := config{}
	algos := strings.Join(congestmwc.AlgorithmNames(), ",")
	fs.DurationVar(&cfg.duration, "duration", time.Minute, "soak length (0 = corpus replay only)")
	fs.Int64Var(&cfg.seed, "seed", 0, "master seed (0 = derive from wall clock)")
	fs.StringVar(&cfg.classes, "classes", "ud,d,uw,dw", "comma-separated class tokens to fuzz")
	fs.IntVar(&cfg.maxN, "maxn", 28, "maximum instance size")
	fs.StringVar(&cfg.corpus, "corpus", "testdata/corpus", "seed-corpus directory replayed before the soak")
	fs.StringVar(&cfg.failDir, "faildir", "mwcfuzz-failures", "directory for minimized reproducers and the failures.jsonl log")
	fs.StringVar(&algos, "algos", algos, "comma-separated portfolio algorithms to run, each on the instances in its range")
	fs.BoolVar(&cfg.parallel, "parallel", true, "also run the approximation on the parallel engine and check agreement")
	fs.BoolVar(&cfg.cancel, "cancel", true, "probe the approximation's Init-phase cancellation on every instance")
	fs.BoolVar(&cfg.session, "session", true, "interleave dynamic-session PATCH-vs-rebuild differential traces into the soak")
	fs.BoolVar(&cfg.verbose, "v", false, "log every instance, not just violations")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	for _, name := range strings.Split(algos, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if _, ok := congestmwc.AlgorithmByName(name); !ok {
			return cfg, fmt.Errorf("-algos: unknown algorithm %q (registered: %v)", name, congestmwc.AlgorithmNames())
		}
		cfg.algos = append(cfg.algos, name)
	}
	if len(cfg.algos) == 0 {
		return cfg, fmt.Errorf("-algos: no algorithm selected")
	}
	return cfg, nil
}

func parseClasses(s string) ([]congestmwc.Class, error) {
	var classes []congestmwc.Class
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		c, err := check.ClassFromToken(tok)
		if err != nil {
			return nil, err
		}
		classes = append(classes, c)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("no classes selected")
	}
	return classes, nil
}

type fuzzer struct {
	cfg      config
	rng      *rand.Rand
	runs     int
	failures int
	perClass map[string]int
}

func (f *fuzzer) opts(seed int64) check.RunOptions {
	return check.RunOptions{
		Seed:     seed,
		Algos:    f.cfg.algos,
		Parallel: f.cfg.parallel,
		Cancel:   f.cfg.cancel,
	}
}

// replayCorpus re-checks every committed corpus instance before fuzzing.
func (f *fuzzer) replayCorpus() error {
	entries, err := filepath.Glob(filepath.Join(f.cfg.corpus, "*.gr"))
	if err != nil {
		return err
	}
	sort.Strings(entries)
	for _, path := range entries {
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		inst, meta, err := check.ReadCorpus(file)
		file.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		vs, err := check.CheckInstance(inst, f.opts(1))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		f.runs++
		for _, v := range vs {
			f.failures++
			fmt.Printf("REPLAY FAIL %s (%s): %s\n", path, meta["oracle"], v)
			f.logFailure(inst, inst, v, 1, path, true)
		}
		if f.cfg.verbose {
			fmt.Printf("replayed %s: %d violations\n", path, len(vs))
		}
	}
	if len(entries) > 0 {
		fmt.Printf("replayed %d corpus instances\n", len(entries))
	}
	return nil
}

// soak fuzzes round-robin over the classes until the duration elapses.
// With -session the dynamic-session differential rides along as one extra
// slot in the rotation, cycling through the same classes.
func (f *fuzzer) soak(classes []congestmwc.Class) {
	f.perClass = make(map[string]int)
	deadline := time.Now().Add(f.cfg.duration)
	for i := 0; time.Now().Before(deadline); i++ {
		if f.cfg.session && i%(len(classes)+1) == len(classes) {
			f.soakSessionTrace(classes[(i/(len(classes)+1))%len(classes)])
			continue
		}
		class := classes[i%len(classes)]
		seed := f.rng.Int63n(1 << 32)
		inst := check.RandomInstance(f.rng, class, f.cfg.maxN)
		vs, err := check.CheckInstance(inst, f.opts(seed))
		if err != nil {
			// The generator guarantees valid instances; a build failure here
			// is itself a bug worth surfacing.
			f.failures++
			fmt.Printf("FAIL %v/%s: instance unusable: %v\n", class, inst.Label, err)
			continue
		}
		f.runs++
		f.perClass[class.String()]++
		if f.cfg.verbose && len(vs) == 0 {
			fmt.Printf("ok %v/%s n=%d m=%d\n", class, inst.Label, inst.N, len(inst.Edges))
		}
		for _, v := range vs {
			f.failures++
			f.handleViolation(inst, v, seed)
		}
	}
}

// soakSessionTrace runs one dynamic-session differential: a seeded trace
// of valid PATCH batches replayed through a live session manager, with
// every intermediate answer diffed against a from-scratch build + solve of
// the same edge set. Reproduce with the printed seed: the trace generator
// is deterministic in it.
func (f *fuzzer) soakSessionTrace(class congestmwc.Class) {
	seed := f.rng.Int63n(1 << 32)
	maxN := f.cfg.maxN
	if maxN > 16 {
		maxN = 16 // a reference solve runs after every batch; keep instances small
	}
	tr := check.RandomSessionTrace(rand.New(rand.NewSource(seed)), class, maxN, 5)
	vs, err := check.CheckSessionTrace(tr, seed)
	if err != nil {
		f.failures++
		fmt.Printf("FAIL session/%v: trace unusable: %v\n", class, err)
		return
	}
	f.runs++
	f.perClass["session"]++
	if f.cfg.verbose && len(vs) == 0 {
		fmt.Printf("ok session/%v n=%d m=%d batches=%d\n", class, tr.Inst.N, len(tr.Inst.Edges), len(tr.Batches))
	}
	for _, v := range vs {
		f.failures++
		fmt.Printf("FAIL session/%v/%s n=%d m=%d batches=%d seed=%d: %s\n",
			class, tr.Inst.Label, tr.Inst.N, len(tr.Inst.Edges), len(tr.Batches), seed, v)
		f.logFailure(tr.Inst, tr.Inst, v, seed, "", false)
	}
}

// handleViolation minimizes the failing instance, persists the reproducer
// and prints a ready-to-paste regression test.
func (f *fuzzer) handleViolation(inst check.Instance, v check.Violation, seed int64) {
	fmt.Printf("FAIL %v/%s n=%d m=%d seed=%d: %s\n",
		inst.Class, inst.Label, inst.N, len(inst.Edges), seed, v)
	opts := f.opts(seed)
	failing := func(in check.Instance) bool {
		vs, err := check.CheckInstance(in, opts)
		if err != nil {
			return false
		}
		for _, got := range vs {
			if got.Oracle == v.Oracle {
				return true
			}
		}
		return false
	}
	minimized := check.Minimize(inst, failing, check.MinimizeOptions{})
	fmt.Printf("minimized to n=%d m=%d\n", minimized.N, len(minimized.Edges))

	path := f.writeReproducer(minimized, v, seed)
	f.logFailure(inst, minimized, v, seed, path, false)
	fmt.Println("--- regression test case ---")
	fmt.Print(check.GoTestCase(minimized, v.Oracle, opts))
	fmt.Println("----------------------------")
}

func (f *fuzzer) writeReproducer(inst check.Instance, v check.Violation, seed int64) string {
	if err := os.MkdirAll(f.cfg.failDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mwcfuzz:", err)
		return ""
	}
	name := fmt.Sprintf("%s-%s-%d.gr", v.Oracle, inst.Label, seed)
	path := filepath.Join(f.cfg.failDir, name)
	file, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mwcfuzz:", err)
		return ""
	}
	defer file.Close()
	meta := map[string]string{
		"oracle": v.Oracle,
		"detail": v.Detail,
		"seed":   fmt.Sprint(seed),
	}
	if err := check.WriteCorpus(file, inst, meta); err != nil {
		fmt.Fprintln(os.Stderr, "mwcfuzz:", err)
		return ""
	}
	fmt.Printf("wrote reproducer to %s\n", path)
	return path
}

func (f *fuzzer) logFailure(orig, minimized check.Instance, v check.Violation, seed int64, file string, replayed bool) {
	if err := os.MkdirAll(f.cfg.failDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mwcfuzz:", err)
		return
	}
	path := filepath.Join(f.cfg.failDir, "failures.jsonl")
	logf, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mwcfuzz:", err)
		return
	}
	defer logf.Close()
	rec := failureRecord{
		Time:     time.Now().UTC().Format(time.RFC3339),
		Class:    orig.Class.String(),
		Shape:    orig.Label,
		Oracle:   v.Oracle,
		Detail:   v.Detail,
		Seed:     seed,
		N:        orig.N,
		M:        len(orig.Edges),
		MinN:     minimized.N,
		MinM:     len(minimized.Edges),
		File:     file,
		Replayed: replayed,
	}
	if err := json.NewEncoder(logf).Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "mwcfuzz:", err)
	}
}

func (f *fuzzer) report() {
	if len(f.perClass) > 0 {
		keys := make([]string, 0, len(f.perClass))
		for k := range f.perClass {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-20s %d instances\n", k, f.perClass[k])
		}
	}
	fmt.Printf("mwcfuzz: %d runs, %d violations\n", f.runs, f.failures)
}
