package radiobcast_test

import (
	"bytes"
	"strings"
	"testing"

	"radiobcast"
	"radiobcast/internal/graph"
)

// TestFamilySizeBelowOne pins that a family member with fewer than one
// node is an error, not a panic in the generator.
func TestFamilySizeBelowOne(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		for _, n := range []int{0, -1, -3} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Family(%q, %d) panicked: %v", name, n, r)
					}
				}()
				if net, err := radiobcast.Family(name, n); err == nil {
					t.Fatalf("Family(%q, %d) = %v, want an error", name, n, net)
				}
			}()
		}
	}
}

// TestFamilySizeOne builds every family at n = 1 and broadcasts on it.
func TestFamilySizeOne(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		net, err := radiobcast.Family(name, 1)
		if err != nil {
			t.Fatalf("Family(%q, 1): %v", name, err)
		}
		if net.Graph.N() < 1 || !net.Graph.IsConnected() {
			t.Fatalf("Family(%q, 1) = %v, want a connected network", name, net)
		}
		out, err := radiobcast.Run(net, "b")
		if err != nil {
			t.Fatalf("%s/1: %v", name, err)
		}
		if err := radiobcast.Verify(out); err != nil {
			t.Fatalf("%s/1: %v", name, err)
		}
	}
}

func TestReadNetworkBounds(t *testing.T) {
	for _, c := range []struct{ name, in, err string }{
		{"no nodes", "0\n", "no nodes"},
		{"billions of nodes", "3000000000\n0 1\n", "cannot connect"},
		{"too few edge lines", "5\n0 1\n1 2\n2 3\n", "cannot connect"},
		{"disconnected", "4\n0 1\n0 1\n2 3\n", "not connected"},
	} {
		if net, err := radiobcast.ReadNetwork(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: ReadNetwork = %v, %v, want an error containing %q", c.name, net, err, c.err)
		}
	}
	for _, in := range []string{"1\n", "2\n0 1\n", "4\n0 1\n1 2\n2 3\n"} {
		if _, err := radiobcast.ReadNetwork(strings.NewReader(in)); err != nil {
			t.Errorf("ReadNetwork(%q): %v", in, err)
		}
	}
}

// FuzzReadNetwork drives the edge-list reader, the trust boundary of the
// CLIs' -graph files: it must never panic, and a network it accepts has
// at least one node, is connected, and reads back from its own edge list
// with the same fingerprint.
func FuzzReadNetwork(f *testing.F) {
	var fig bytes.Buffer
	if err := graph.WriteEdgeList(&fig, graph.Figure1()); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"0\n", "3000000000\n0 1\n", "1\n", "4\n0 1\n1 2\n2 3\n",
		"# comment\n3\n0 1 # edge\n\n1 2\n", "3\n0 1\n0 1\n", "2\n1 1\n", fig.String(),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := radiobcast.ReadNetwork(bytes.NewReader(data))
		if err != nil {
			return
		}
		g := net.Graph
		if g.N() < 1 || !g.IsConnected() {
			t.Fatalf("accepted a network with n=%d, connected=%v", g.N(), g.IsConnected())
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := radiobcast.ReadNetwork(&buf)
		if err != nil {
			t.Fatalf("an accepted network's own edge list is refused: %v", err)
		}
		if back.Graph.N() != g.N() || back.Graph.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changed the network: %v → %v", g, back.Graph)
		}
	})
}
