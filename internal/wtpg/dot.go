package wtpg

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the WTPG in Graphviz DOT format for debugging and
// papers: T0 with its weighted edges to every transaction, solid arrows for
// precedence edges, dashed bidirectional pairs for undetermined conflict
// edges, each labeled with its weight(s).
func (g *Graph) WriteDOT(w io.Writer, w0 T0Weight) error {
	var b strings.Builder
	b.WriteString("digraph wtpg {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  T0 [shape=doublecircle];\n")
	for _, t := range g.order {
		fmt.Fprintf(&b, "  T%d [shape=circle];\n", t.ID)
	}
	for _, t := range g.order {
		fmt.Fprintf(&b, "  T0 -> T%d [label=\"%g\", color=gray];\n", t.ID, w0(t))
	}
	// edgeSet is already sorted by (a, b).
	for _, e := range g.edgeSet() {
		switch e.dir {
		case Undetermined:
			fmt.Fprintf(&b, "  T%d -> T%d [label=\"%g\", style=dashed, dir=both];\n", e.a, e.b, e.wAB)
			fmt.Fprintf(&b, "  T%d -> T%d [label=\"%g\", style=dashed, dir=both];\n", e.b, e.a, e.wBA)
		default:
			from, to, weight := e.oriented()
			fmt.Fprintf(&b, "  T%d -> T%d [label=\"%g\"];\n", from, to, weight)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
