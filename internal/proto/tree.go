// Package proto implements the reusable distributed protocol substrates the
// paper's algorithms are built from, each as CONGEST node programs on the
// simulator in internal/congest:
//
//   - BFS spanning-tree construction over the communication graph (O(D)),
//   - convergecast of an associative aggregate and broadcast of the result
//     (O(D)), the standard primitives of Peleg's book cited as [43],
//   - broadcast of M values to all nodes in O(M+D) via tree pipelining,
//   - pipelined multi-source BFS / SSSP (source detection in the style of
//     Lenzen-Patt-Shamir [37]), the workhorse of Algorithms 1-3: exact
//     hop/distance-bounded distances from k sources in O(k+h) rounds, with
//     optional per-arc lengths (stretched scaled graphs, Section 5) and a
//     top-sigma cutoff (the sqrt(n)-nearest-neighbourhood computation of
//     Section 4).
package proto

import (
	"fmt"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
)

// Protocol message tags. Each protocol uses its own tag space; tags are
// per-message and do not need to be globally unique across phases because
// phases run back-to-back to quiescence.
const (
	tagTreeExplore int64 = iota + 1
	tagTreeChild
	tagConvergeUp
	tagConvergeDown
	tagBroadcastVal
	tagBFSPair
)

// Tree is a rooted spanning tree of the communication graph, the result of
// BuildTree. Parent[root] == -1.
type Tree struct {
	Root     int
	Parent   []int
	Depth    []int
	Children [][]int
	// Height is the tree height: the eccentricity of the root in the
	// communication graph (BFS depth equals distance), hence at most D and
	// at least D/2 — the standard distributed proxy for the diameter.
	Height int
}

// BuildTree constructs a BFS spanning tree rooted at root over the
// communication graph in O(D) rounds. Every node learns its parent, depth
// and children.
func BuildTree(net *congest.Network, root int) (*Tree, error) {
	n := net.Graph().N()
	t := &Tree{
		Root:     root,
		Parent:   make([]int, n),
		Depth:    make([]int, n),
		Children: make([][]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
		t.Depth[i] = -1
	}
	progs := make([]congest.Program, n)
	for v := 0; v < n; v++ {
		v := v
		progs[v] = congest.Funcs{
			OnInit: func(nd *congest.Node) {
				if v == root {
					t.Depth[v] = 0
					for _, u := range nd.Neighbors() {
						nd.SendTag(u, tagTreeExplore, 0)
					}
				}
			},
			OnDeliver: func(nd *congest.Node, d congest.Delivery) {
				switch d.Msg.Tag {
				case tagTreeExplore:
					if t.Depth[v] >= 0 {
						return
					}
					t.Depth[v] = int(d.Msg.Words[0]) + 1
					t.Parent[v] = d.From
					nd.SendTag(d.From, tagTreeChild)
					for _, u := range nd.Neighbors() {
						if u != d.From {
							nd.SendTag(u, tagTreeExplore, int64(t.Depth[v]))
						}
					}
				case tagTreeChild:
					t.Children[v] = append(t.Children[v], d.From)
				}
			},
		}
	}
	if _, err := net.Run(progs, 0); err != nil {
		return nil, fmt.Errorf("build tree: %w", err)
	}
	for v := 0; v < n; v++ {
		if t.Depth[v] > t.Height {
			t.Height = t.Depth[v]
		}
	}
	return t, nil
}

// ConvergecastMin computes min over the per-node int64 values and makes the
// result known to every node, in O(D) rounds (up the tree, then down). It
// is Convergecast with OpMin, kept as a named helper because it is the
// paper's most common aggregate.
func ConvergecastMin(net *congest.Network, tree *Tree, value []int64) (int64, error) {
	return Convergecast(net, tree, OpMin, value)
}

// Broadcast disseminates per-node value records to every node in O(M+D)
// rounds, where M is the total number of records: records are upcast to the
// root through the tree (pipelined by the transport) and flooded back down.
// Every record is a fixed-width word tuple. Returns, for each node, the
// records it received: every node receives all M records, including its
// own, in one canonical order — the order they reach the root, which FIFO
// links preserve on the way down. The nodes' lists are therefore the same
// sequence, kept once in the root's flat word arena and shared by every
// node; they must not be modified.
func Broadcast(net *congest.Network, tree *Tree, values [][][]int64) ([][][]int64, error) {
	n := net.Graph().N()
	m, w := 0, 0
	for _, recs := range values {
		m += len(recs)
		for _, rec := range recs {
			w += len(rec)
		}
	}
	words := make([]int64, 0, w) // the root's records, back to back
	sizes := make([]int, 0, m)   // and their lengths
	got := make([]int, n)        // records each node received
	progs := make([]congest.Program, n)
	for v := 0; v < n; v++ {
		v := v
		down := func(nd *congest.Node, rec []int64) {
			got[v]++
			if v == tree.Root {
				// rec may be a delivered payload, valid only inside this
				// handler: the arena keeps a copy.
				words = append(words, rec...)
				sizes = append(sizes, len(rec))
			}
			for _, c := range tree.Children[v] {
				nd.Send(c, congest.Msg{Tag: tagBroadcastVal, Words: rec})
			}
		}
		progs[v] = congest.Funcs{
			OnInit: func(nd *congest.Node) {
				for _, rec := range values[v] {
					if v == tree.Root {
						down(nd, rec)
						continue
					}
					nd.Send(tree.Parent[v], congest.Msg{Tag: tagBroadcastVal, Words: rec})
				}
			},
			OnDeliver: func(nd *congest.Node, d congest.Delivery) {
				if d.Msg.Tag != tagBroadcastVal {
					return
				}
				if tree.Parent[v] >= 0 && d.From != tree.Parent[v] {
					// Upward-bound record from a child: forward toward root.
					nd.Send(tree.Parent[v], congest.Msg{Tag: tagBroadcastVal, Words: d.Msg.Words})
					return
				}
				// At the root, or from the parent: the record has been seen
				// by the root, flood it down.
				down(nd, d.Msg.Words)
			},
		}
	}
	if _, err := net.Run(progs, 0); err != nil {
		return nil, fmt.Errorf("broadcast: %w", err)
	}
	for v, c := range got {
		if c != m {
			return nil, fmt.Errorf("broadcast: node %d received %d of %d records", v, c, m)
		}
	}
	out := make([][][]int64, n)
	if m == 0 {
		return out, nil
	}
	recs := make([][]int64, m)
	off := 0
	for i, l := range sizes {
		recs[i] = words[off : off+l : off+l]
		off += l
	}
	for v := range out {
		out[v] = recs
	}
	return out, nil
}

// arcsFor returns the arcs along which a node propagates for the given
// traversal direction. Propagating "Forward" means distances follow the
// input graph's arc directions, so a node forwards along its Out arcs;
// Backward follows reversed arcs (used for BFS in the reversed graph);
// Undirected treats every incident edge as traversable both ways.
func arcsFor(nd *congest.Node, dir Direction) []graph.Arc {
	switch dir {
	case Forward:
		return nd.Out()
	case Backward:
		return nd.In()
	default:
		return commArcs(nd)
	}
}

func commArcs(nd *congest.Node) []graph.Arc {
	// For undirected graphs Out already contains every incident edge. For
	// directed graphs traversed undirectedly, combine Out and In.
	if !nd.Directed() {
		return nd.Out()
	}
	arcs := make([]graph.Arc, 0, len(nd.Out())+len(nd.In()))
	arcs = append(arcs, nd.Out()...)
	arcs = append(arcs, nd.In()...)
	return arcs
}
