package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := Figure1()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if !back.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := `# a comment
3

0 1  # trailing comment
1 2
`
	g, edges, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || edges != 2 {
		t.Fatalf("n=%d m=%d edge lines=%d", g.N(), g.M(), edges)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad count":      "x\n",
		"bad edge arity": "3\n0 1 2\n",
		"bad edge token": "3\n0 q\n",
		"out of range":   "3\n0 5\n",
		"self loop":      "3\n1 1\n",
	}
	for name, in := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := Path(3)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, []string{"10", "00", "01"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph radio {", "0 -- 1", "1 -- 2", `label="1\n00"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteDOT(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "  1;") {
		t.Fatal("unlabeled DOT missing plain node")
	}
}
