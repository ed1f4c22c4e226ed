// Package check is the differential fuzzing and invariant-oracle harness
// of the repository: machine-checked statements of the paper's guarantees
// ((2-1/g) and (2+eps) approximation ratios, witness-cycle validity,
// round-complexity ceilings, engine agreement) evaluated against the
// sequential ground truth of internal/seq on randomly generated instances
// of every graph class.
//
// The package has three parts:
//
//   - a seeded instance generator (gen.go) covering every class
//     (directed/undirected x weighted/unweighted) and a set of adversarial
//     shapes: stars, long paths, dense blocks, zero and near-maximum
//     weights, acyclic graphs;
//   - an oracle registry (oracle.go): Run executes the algorithms on an
//     instance and Check evaluates every oracle, returning the violations;
//   - a delta-debugging minimizer (minimize.go) that shrinks a failing
//     instance to a small reproducer and emits it as a graphio corpus file
//     plus a ready-to-paste Go test case.
//
// The algorithms, their bounds, round ceilings and harness ranges all come
// from the portfolio registry (congestmwc.Portfolio), so a registered
// algorithm is fuzzed, bounded and checked without being named here.
//
// cmd/mwcfuzz drives timed soaks over this engine; the native go-fuzz
// targets (FuzzApproxMWC, FuzzPortfolio, FuzzJobsSubmit) wrap the same
// oracles, so CI fuzzing and soak runs share one notion of correctness.
// See docs/TESTING.md.
package check

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"congestmwc"
	"congestmwc/internal/graph"
	"congestmwc/internal/graphio"
)

// Instance is one generated (or minimized) test instance: a class, a
// vertex count and an edge list, plus the shape label it was generated
// from. It is the unit the generator produces, the oracles consume and the
// minimizer shrinks.
type Instance struct {
	Class congestmwc.Class
	N     int
	Edges []congestmwc.Edge
	Label string
}

// Graph builds the instance through the public facade (the same
// constructor every API consumer goes through).
func (in Instance) Graph() (*congestmwc.Graph, error) {
	return congestmwc.NewGraph(in.N, in.Edges, in.Class)
}

// Directed reports whether the instance's class is directed.
func (in Instance) Directed() bool {
	return in.Class == congestmwc.Directed || in.Class == congestmwc.DirectedWeighted
}

// Weighted reports whether the instance's class is weighted.
func (in Instance) Weighted() bool {
	return in.Class == congestmwc.UndirectedWeighted || in.Class == congestmwc.DirectedWeighted
}

// HasZeroWeight reports whether any edge has weight zero. The weighted
// approximation pipeline documents weights >= 1 and rejects such instances
// with a descriptive error; the oracles treat that rejection as expected.
func (in Instance) HasZeroWeight() bool {
	for _, e := range in.Edges {
		if e.Weight == 0 {
			return true
		}
	}
	return false
}

// MaxWeight returns the largest edge weight (1 for unweighted classes or
// empty edge lists) — the log(W) term of the weighted round bounds.
func (in Instance) MaxWeight() int64 {
	w := int64(1)
	if !in.Weighted() {
		return w
	}
	for _, e := range in.Edges {
		if e.Weight > w {
			w = e.Weight
		}
	}
	return w
}

// internalGraph builds the instance as an internal/graph.Graph for
// structural analysis (communication diameter) that the facade does not
// expose.
func (in Instance) internalGraph() (*graph.Graph, error) {
	ge := make([]graph.Edge, len(in.Edges))
	for i, e := range in.Edges {
		w := e.Weight
		if !in.Weighted() {
			w = 1
		}
		ge[i] = graph.Edge{From: e.From, To: e.To, Weight: w}
	}
	return graph.Build(in.N, ge, graph.Options{Directed: in.Directed(), Weighted: in.Weighted()})
}

// Valid reports whether the instance builds and its communication graph is
// connected — the precondition for running any CONGEST algorithm on it.
func (in Instance) Valid() bool {
	g, err := in.Graph()
	return err == nil && g.Connected()
}

// classToken maps a class to its graphio p-line token.
func classToken(c congestmwc.Class) string {
	switch c {
	case congestmwc.Undirected:
		return graphio.ClassUndirected
	case congestmwc.Directed:
		return graphio.ClassDirected
	case congestmwc.UndirectedWeighted:
		return graphio.ClassUndirectedWeighted
	case congestmwc.DirectedWeighted:
		return graphio.ClassDirectedWeighted
	default:
		return "?"
	}
}

// ClassFromToken parses a graphio class token (ud | d | uw | dw).
func ClassFromToken(tok string) (congestmwc.Class, error) {
	switch tok {
	case graphio.ClassUndirected:
		return congestmwc.Undirected, nil
	case graphio.ClassDirected:
		return congestmwc.Directed, nil
	case graphio.ClassUndirectedWeighted:
		return congestmwc.UndirectedWeighted, nil
	case graphio.ClassDirectedWeighted:
		return congestmwc.DirectedWeighted, nil
	default:
		return 0, fmt.Errorf("check: unknown class token %q", tok)
	}
}

// WriteCorpus writes the instance as a graphio file with "c key: value"
// metadata comment lines, loadable both by graphio.Read (which skips the
// comments) and by ReadCorpus (which recovers the metadata).
func WriteCorpus(w io.Writer, in Instance, meta map[string]string) error {
	ig, err := in.internalGraph()
	if err != nil {
		return fmt.Errorf("check: corpus instance does not build: %w", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c mwcfuzz corpus instance\n")
	if in.Label != "" {
		fmt.Fprintf(bw, "c shape: %s\n", in.Label)
	}
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(bw, "c %s: %s\n", k, meta[k])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return graphio.Write(w, ig)
}

// ReadCorpus parses a corpus file written by WriteCorpus: the graph comes
// from the graphio records, the metadata from the "c key: value" comments.
func ReadCorpus(r io.Reader) (Instance, map[string]string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Instance{}, nil, fmt.Errorf("check: %w", err)
	}
	meta := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "c ") {
			continue
		}
		body := strings.TrimSpace(strings.TrimPrefix(line, "c "))
		if k, v, ok := strings.Cut(body, ":"); ok {
			meta[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	g, err := graphio.Read(strings.NewReader(string(data)))
	if err != nil {
		return Instance{}, nil, err
	}
	in := FromInternal(g, meta["shape"])
	return in, meta, nil
}

// FromInternal converts an internal/graph.Graph (e.g. a parsed graphio
// file) into an Instance, deriving the class from the graph's flags.
func FromInternal(g *graph.Graph, label string) Instance {
	var class congestmwc.Class
	switch {
	case g.Directed() && g.Weighted():
		class = congestmwc.DirectedWeighted
	case g.Directed():
		class = congestmwc.Directed
	case g.Weighted():
		class = congestmwc.UndirectedWeighted
	default:
		class = congestmwc.Undirected
	}
	edges := make([]congestmwc.Edge, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, congestmwc.Edge{From: e.From, To: e.To, Weight: e.Weight})
	}
	return Instance{Class: class, N: g.N(), Edges: edges, Label: label}
}

// classGoName maps a class to its Go identifier for emitted test cases.
func classGoName(c congestmwc.Class) string {
	switch c {
	case congestmwc.Undirected:
		return "congestmwc.Undirected"
	case congestmwc.Directed:
		return "congestmwc.Directed"
	case congestmwc.UndirectedWeighted:
		return "congestmwc.UndirectedWeighted"
	case congestmwc.DirectedWeighted:
		return "congestmwc.DirectedWeighted"
	default:
		return fmt.Sprintf("congestmwc.Class(%d)", int(c))
	}
}

// GoTestCase renders a ready-to-paste Go test function that rebuilds the
// instance and re-checks the named oracle, for pinning a minimized
// counterexample as a permanent regression test.
func GoTestCase(in Instance, oracle string, opts RunOptions) string {
	opts = opts.withDefaults()
	var b strings.Builder
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return -1
		}
	}, oracle+in.Label)
	fmt.Fprintf(&b, "// Minimized counterexample for oracle %q (shape %s), emitted by internal/check.\n", oracle, in.Label)
	if name != "" {
		name = strings.ToUpper(name[:1]) + name[1:]
	}
	fmt.Fprintf(&b, "func TestRepro%s(t *testing.T) {\n", name)
	fmt.Fprintf(&b, "\tinst := check.Instance{\n")
	fmt.Fprintf(&b, "\t\tClass: %s,\n", classGoName(in.Class))
	fmt.Fprintf(&b, "\t\tN:     %d,\n", in.N)
	fmt.Fprintf(&b, "\t\tEdges: []congestmwc.Edge{\n")
	for _, e := range in.Edges {
		if in.Weighted() {
			fmt.Fprintf(&b, "\t\t\t{From: %d, To: %d, Weight: %d},\n", e.From, e.To, e.Weight)
		} else {
			fmt.Fprintf(&b, "\t\t\t{From: %d, To: %d},\n", e.From, e.To)
		}
	}
	fmt.Fprintf(&b, "\t\t},\n\t}\n")
	fmt.Fprintf(&b, "\tviolations, err := check.CheckInstance(inst, check.RunOptions{Seed: %d, SampleFactor: %g, Eps: %g, Algos: %#v})\n",
		opts.Seed, opts.SampleFactor, opts.Eps, opts.Algos)
	fmt.Fprintf(&b, "\tif err != nil {\n\t\tt.Fatal(err)\n\t}\n")
	fmt.Fprintf(&b, "\tfor _, v := range violations {\n")
	fmt.Fprintf(&b, "\t\tif v.Oracle == %q {\n\t\t\tt.Errorf(\"oracle %%s still fails: %%s\", v.Oracle, v.Detail)\n\t\t}\n\t}\n", oracle)
	fmt.Fprintf(&b, "}\n")
	return b.String()
}
