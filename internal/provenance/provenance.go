// Package provenance reconstructs causal infection forests from exported
// event streams. The contract (DESIGN.md §7): the FIRST record bearing a
// span ID is that episode's opening record — it carries the parent span
// and the delivery vector tag — and every later record with the same span
// is in-episode detail. Roots are episodes with parent 0 (patient zero
// compromises, operator orders). Spans are unique within one experiment
// export; across experiments nodes are keyed by (exp tag, span) so a
// combined `-all` export still reconstructs one clean forest per
// experiment.
package provenance

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// NodeID identifies one causal episode in a (possibly multi-experiment)
// event stream.
type NodeID struct {
	Exp  string // the exp=<ID> tag, "" when untagged
	Span obs.Span
}

func (id NodeID) String() string {
	if id.Exp == "" {
		return fmt.Sprintf("s%d", id.Span)
	}
	return fmt.Sprintf("%s/s%d", id.Exp, id.Span)
}

// Node is one reconstructed episode: an infection, a deployed payload, a
// wipe, an operator order.
type Node struct {
	ID     NodeID
	Parent obs.Span // 0 for roots
	Vector string   // delivery vector tag of the opening record
	Cat    string
	Actor  string
	Msg    string
	At     time.Time
	Seq    uint64
	Events int // records carrying this span, opener included

	Up       *Node   // resolved parent, nil for roots and orphans
	Children []*Node // sorted by (At, Seq, Span)
}

// Depth is the edge distance from this node's root (0 for roots and
// orphans).
func (n *Node) Depth() int {
	d := 0
	for p := n.Up; p != nil; p = p.Up {
		d++
	}
	return d
}

// Size is the node count of the subtree rooted here.
func (n *Node) Size() int {
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Forest is the reconstructed causal forest of an event stream.
type Forest struct {
	Nodes   map[NodeID]*Node
	Roots   []*Node // parent 0, sorted by (Exp, At, Seq, Span)
	Orphans []*Node // parent span missing from the stream or not allocated before the node
	Total   int     // events scanned
	Spanned int     // events carrying a span

	// order is every node in compareNodes order. Build sorts once, and
	// Validate and DOT walk the same slice.
	order []*Node
}

// Build reconstructs the forest from an event stream (as exported by
// `-trace` or captured in a Result). Order of events matters only for the
// opener-first contract; reconstruction itself is deterministic for any
// stable input order.
func Build(events []obs.Event) *Forest {
	f := &Forest{Nodes: make(map[NodeID]*Node)}
	for _, e := range events {
		f.Total++
		if e.Span == 0 {
			continue
		}
		f.Spanned++
		exp, _ := e.Get("exp")
		id := NodeID{Exp: exp, Span: e.Span}
		if n, ok := f.Nodes[id]; ok {
			n.Events++
			continue
		}
		vector, _ := e.Get("vector")
		n := &Node{
			ID: id, Parent: e.Parent, Vector: vector,
			Cat: e.Cat, Actor: e.Actor, Msg: e.Msg,
			At: e.At, Seq: e.Seq, Events: 1,
		}
		f.Nodes[id] = n
		if len(f.order) == cap(f.order) {
			// Double: append's 1.25x steps past 256 elements allocate
			// about 5x a large final slice, doubling about 2x.
			f.order = append(make([]*Node, 0, max(2*cap(f.order), 64)), f.order...)
		}
		f.order = append(f.order, n)
	}
	// A trace opens episodes roughly in time order, so first-seen order is
	// nearly sorted, the cheap case for the sort. (Exp, Span) is unique,
	// so the order is total.
	slices.SortFunc(f.order, compareNodes)

	for _, n := range f.order {
		if n.Parent == 0 {
			f.Roots = append(f.Roots, n)
			continue
		}
		// Link only a parent allocated before the child (Validate's
		// allocation-order clause). Every cycle has an edge that breaks
		// it, so every Up chain ends at a root or an orphan.
		p, ok := f.Nodes[NodeID{Exp: n.ID.Exp, Span: n.Parent}]
		if !ok || n.Parent >= n.ID.Span {
			f.Orphans = append(f.Orphans, n)
			continue
		}
		n.Up = p
		p.Children = append(p.Children, n)
	}
	return f
}

// compareNodes orders nodes by experiment, then time, then capture
// sequence, then span.
func compareNodes(a, b *Node) int {
	if c := strings.Compare(a.ID.Exp, b.ID.Exp); c != 0 {
		return c
	}
	if c := a.At.Compare(b.At); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
		return c
	}
	return cmp.Compare(a.ID.Span, b.ID.Span)
}

// Node returns the node for an ID, or nil.
func (f *Forest) Node(id NodeID) *Node { return f.Nodes[id] }

// Chain walks from the identified node up to its root, returning the path
// root-first. Nil when the span is unknown.
func (f *Forest) Chain(id NodeID) []*Node {
	n := f.Nodes[id]
	if n == nil {
		return nil
	}
	var rev []*Node
	for ; n != nil; n = n.Up {
		rev = append(rev, n)
	}
	out := make([]*Node, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// Validate checks the forest's causal invariants, returning one message
// per violation (empty = valid):
//   - every non-zero parent span exists in the stream (no orphans);
//   - a parent episode opens no later than its children (At monotone);
//   - parent span IDs precede child span IDs (allocation order).
func (f *Forest) Validate() []string {
	var issues []string
	for _, n := range f.order {
		if n.Parent == 0 {
			continue
		}
		p, ok := f.Nodes[NodeID{Exp: n.ID.Exp, Span: n.Parent}]
		if !ok {
			issues = append(issues, fmt.Sprintf("%s: parent span %d missing from stream", n.ID, n.Parent))
			continue
		}
		if p.At.After(n.At) {
			issues = append(issues, fmt.Sprintf("%s: opens at %s before its parent %s (%s)",
				n.ID, n.At.Format(time.RFC3339), p.ID, p.At.Format(time.RFC3339)))
		}
		if n.Parent >= n.ID.Span {
			issues = append(issues, fmt.Sprintf("%s: parent span %d not allocated before it", n.ID, n.Parent))
		}
	}
	return issues
}

// Stats are the forest-level aggregates: how deep the infection chains
// went, how wide they fanned out, which vectors carried them, and how
// fast each hop landed.
type Stats struct {
	Total     int // events scanned
	Spanned   int // events carrying a span
	Nodes     int
	Roots     int
	Orphans   int
	MaxDepth  int // edges; 0 = roots only
	MaxFanOut int // widest single node
	// Vectors counts episodes per delivery vector.
	Vectors map[string]int
	// HopTimes[d-1] is the earliest root-to-depth-d latency observed
	// (virtual time), for d in 1..MaxDepth.
	HopTimes []time.Duration
}

// Stats computes the forest aggregates.
func (f *Forest) Stats() Stats {
	s := Stats{
		Total: f.Total, Spanned: f.Spanned,
		Nodes: len(f.Nodes), Roots: len(f.Roots), Orphans: len(f.Orphans),
		Vectors: make(map[string]int),
	}
	for _, n := range f.Nodes {
		if n.Vector != "" {
			s.Vectors[n.Vector]++
		}
		if len(n.Children) > s.MaxFanOut {
			s.MaxFanOut = len(n.Children)
		}
	}
	var walk func(n *Node, root *Node, depth int)
	walk = func(n *Node, root *Node, depth int) {
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		if depth > 0 {
			dt := n.At.Sub(root.At)
			for len(s.HopTimes) < depth {
				s.HopTimes = append(s.HopTimes, -1)
			}
			if s.HopTimes[depth-1] < 0 || dt < s.HopTimes[depth-1] {
				s.HopTimes[depth-1] = dt
			}
		}
		for _, c := range n.Children {
			walk(c, root, depth+1)
		}
	}
	for _, r := range f.Roots {
		walk(r, r, 0)
	}
	return s
}

// Exps returns the distinct experiment tags present, sorted.
func (f *Forest) Exps() []string {
	seen := make(map[string]bool)
	for id := range f.Nodes {
		seen[id.Exp] = true
	}
	out := make([]string, 0, len(seen))
	for exp := range seen {
		out = append(out, exp)
	}
	sort.Strings(out)
	return out
}
