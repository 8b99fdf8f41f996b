package provenance

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// maxLabel bounds node labels in both renderers so 30,000-host forests
// stay legible.
const maxLabel = 56

func clip(s string) string {
	if len(s) <= maxLabel {
		return s
	}
	return s[:maxLabel-1] + "…"
}

// dotEscape makes a string safe inside a double-quoted DOT label.
func dotEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// DOT renders the forest as a deterministic Graphviz digraph: one cluster
// per experiment tag, vector-labelled edges, orphans dashed. Identical
// inputs yield identical bytes.
func (f *Forest) DOT(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("digraph provenance {\n")
	bw.printf("  rankdir=LR;\n")
	bw.printf("  node [shape=box, fontsize=10, fontname=\"monospace\"];\n")
	bw.printf("  edge [fontsize=9, fontname=\"monospace\"];\n")

	nodes := f.order
	exps := f.Exps()
	multi := len(exps) > 1
	for ci, exp := range exps {
		indent := "  "
		if multi {
			bw.printf("  subgraph cluster_%d {\n", ci)
			bw.printf("    label=\"%s\";\n", dotEscape(exp))
			indent = "    "
		}
		for _, n := range nodes {
			if n.ID.Exp != exp {
				continue
			}
			label := fmt.Sprintf("%s\\n[%s] %s", dotEscape(n.Actor), dotEscape(n.Cat), dotEscape(clip(n.Msg)))
			bw.printf("%s\"%s\" [label=\"%s\"];\n", indent, dotEscape(n.ID.String()), label)
		}
		if multi {
			bw.printf("  }\n")
		}
	}
	for _, n := range nodes {
		if n.Up != nil {
			bw.printf("  \"%s\" -> \"%s\" [label=\"%s\"];\n",
				dotEscape(n.Up.ID.String()), dotEscape(n.ID.String()), dotEscape(n.Vector))
		} else if n.Parent != 0 {
			// Orphan: parent evicted or outside the export window.
			bw.printf("  \"s%d?\" -> \"%s\" [label=\"%s\", style=dashed];\n",
				n.Parent, dotEscape(n.ID.String()), dotEscape(n.Vector))
		}
	}
	bw.printf("}\n")
	return bw.err
}

// Text renders the forest as an indented tree, one block per root, roots
// in deterministic order. Children show their delivery vector and their
// virtual-time offset from the root.
func (f *Forest) Text(w io.Writer) error {
	bw := &errWriter{w: w}
	writeTree := func(root *Node) {
		var walk func(n *Node, depth int)
		walk = func(n *Node, depth int) {
			if depth == 0 {
				bw.printf("%s  %s  [%s] %s  (%s)\n",
					n.ID, n.Actor, n.Cat, clip(n.Msg), n.At.UTC().Format(time.RFC3339))
			} else {
				bw.printf("%s+- (%s) %s  %s  [%s] %s  (+%s)\n",
					strings.Repeat("  ", depth), n.Vector, n.ID, n.Actor, n.Cat, clip(n.Msg),
					n.At.Sub(root.At))
			}
			for _, c := range n.Children {
				walk(c, depth+1)
			}
		}
		walk(root, 0)
	}
	for i, r := range f.Roots {
		if i > 0 {
			bw.printf("\n")
		}
		writeTree(r)
	}
	if len(f.Orphans) > 0 {
		if len(f.Roots) > 0 {
			bw.printf("\n")
		}
		bw.printf("orphans (parent outside export window):\n")
		for _, n := range f.Orphans {
			bw.printf("  (%s) %s  %s  [%s] %s\n", n.Vector, n.ID, n.Actor, n.Cat, clip(n.Msg))
		}
	}
	return bw.err
}

// RenderStats formats the aggregate block used in experiment reports.
func RenderStats(s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "provenance: %d episodes, %d roots, max depth %d, max fan-out %d (%d/%d events spanned)\n",
		s.Nodes, s.Roots, s.MaxDepth, s.MaxFanOut, s.Spanned, s.Total)
	if s.Orphans > 0 {
		fmt.Fprintf(&b, "orphans: %d\n", s.Orphans)
	}
	if len(s.Vectors) > 0 {
		vecs := make([]string, 0, len(s.Vectors))
		for v := range s.Vectors {
			vecs = append(vecs, v)
		}
		sort.Strings(vecs)
		b.WriteString("vectors:")
		for _, v := range vecs {
			fmt.Fprintf(&b, " %s=%d", v, s.Vectors[v])
		}
		b.WriteString("\n")
	}
	for d, dt := range s.HopTimes {
		if dt >= 0 {
			fmt.Fprintf(&b, "first hop to depth %d after %s\n", d+1, dt)
		}
	}
	return b.String()
}

// errWriter folds the first write error, so renderers can stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
