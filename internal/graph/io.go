package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text I/O for the command-line tools: a trivial edge-list format and DOT
// export for visualisation.
//
// Edge-list format: first non-comment line is the node count, each
// subsequent line "u v" is an edge. '#' starts a comment.

// ReadEdgeList parses the edge-list format and also returns the number of
// edge lines it read. Nothing it allocates is sized by the node count the
// input states, so a caller that distrusts the input can check that count
// against the edge lines before a read of the graph builds its CSR.
func ReadEdgeList(r io.Reader) (*Graph, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var g *Graph
	line, edges := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if g == nil {
			if len(fields) != 1 {
				return nil, 0, fmt.Errorf("graph: line %d: want node count, got %q", line, text)
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil || n < 0 {
				return nil, 0, fmt.Errorf("graph: line %d: bad node count %q", line, fields[0])
			}
			g = New(n)
			continue
		}
		if len(fields) != 2 {
			return nil, 0, fmt.Errorf("graph: line %d: want \"u v\", got %q", line, text)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad edge %q", line, text)
		}
		if u < 0 || u >= g.N() || v < 0 || v >= g.N() || u == v {
			return nil, 0, fmt.Errorf("graph: line %d: invalid edge {%d,%d} for n=%d", line, u, v, g.N())
		}
		g.AddEdge(u, v)
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if g == nil {
		return nil, 0, fmt.Errorf("graph: empty input")
	}
	return g, edges, nil
}

// WriteDOT writes g in Graphviz DOT format. If labels is non-nil it must
// have one entry per node; labels are shown alongside node ids.
func WriteDOT(w io.Writer, g *Graph, labels []string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph radio {")
	fmt.Fprintln(bw, "  node [shape=circle];")
	for v := 0; v < g.N(); v++ {
		if labels != nil {
			fmt.Fprintf(bw, "  %d [label=\"%d\\n%s\"];\n", v, v, labels[v])
		} else {
			fmt.Fprintf(bw, "  %d;\n", v)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "  %d -- %d;\n", e[0], e[1])
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
