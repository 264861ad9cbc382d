package radiobcast

import (
	"fmt"
	"io"
	"os"
	"sort"

	"radiobcast/internal/graph"
)

// Network bundles a topology with the designated roles a run needs: the
// broadcast source and (for scheme "barb") the coordinator. Builders
// return *Network so call sites chain naturally:
//
//	net, err := radiobcast.Family("grid", 64)
//	out, err := radiobcast.Run(net.At(3), "back")
type Network struct {
	// Graph is the topology.
	Graph *Graph
	// Source is the broadcast source (default 0).
	Source int
	// Coordinator is the coordinator r for scheme "barb" (default 0).
	Coordinator int
	// Name describes where the network came from (family name, file, …).
	Name string
}

// NewNetwork wraps an explicit graph.
func NewNetwork(g *Graph) *Network {
	return &Network{Graph: g, Name: "custom"}
}

// Family builds the n-node member of a named graph family ("path",
// "grid", "gnp-sparse", …; see FamilyNames). n must be at least 1.
// Generators may round n (grids use the nearest square); read the actual
// size from Graph.N(). The name "figure1" yields the paper's 13-node
// example with its source preset, and ignores n.
func Family(name string, n int) (*Network, error) {
	if name == "figure1" {
		return Figure1(), nil
	}
	build, ok := graph.Families[name]
	if !ok {
		return nil, fmt.Errorf("radiobcast: unknown graph family %q (known: %v)", name, FamilyNames())
	}
	if n < 1 {
		return nil, fmt.Errorf("radiobcast: graph size %d: a network needs at least one node", n)
	}
	return &Network{Graph: build(n), Name: name}, nil
}

// Figure1 returns the paper's 13-node Figure 1 network with its source.
func Figure1() *Network {
	return &Network{Graph: graph.Figure1(), Source: graph.Figure1Source, Name: "figure1"}
}

// ReadNetwork reads an edge-list ("u v" per line) network from r and
// requires it to be connected, so to have at least one node and at least
// n−1 edge lines. The node count is checked against the edge lines before
// anything is sized by it: a short input cannot claim billions of nodes.
func ReadNetwork(r io.Reader) (*Network, error) {
	g, edges, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	switch n := g.N(); {
	case n < 1:
		return nil, fmt.Errorf("radiobcast: network has no nodes")
	case n > edges+1:
		return nil, fmt.Errorf("radiobcast: network is not connected: %d edge lines cannot connect %d nodes", edges, n)
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("radiobcast: network is not connected")
	}
	return &Network{Graph: g, Name: "edge-list"}, nil
}

// LoadNetwork reads an edge-list network from a file.
func LoadNetwork(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	net, err := ReadNetwork(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	net.Name = path
	return net, nil
}

// FamilyOrFile builds a network from an edge-list file when path is
// non-empty, and from the named family otherwise — the selection shape
// shared by the CLIs.
func FamilyOrFile(family string, n int, path string) (*Network, error) {
	if path != "" {
		return LoadNetwork(path)
	}
	return Family(family, n)
}

// At sets the broadcast source and returns the network.
func (net *Network) At(source int) *Network {
	net.Source = source
	return net
}

// Coordinated sets the coordinator r used by scheme "barb" and returns
// the network.
func (net *Network) Coordinated(r int) *Network {
	net.Coordinator = r
	return net
}

// String implements fmt.Stringer.
func (net *Network) String() string {
	return fmt.Sprintf("%s %v", net.Name, net.Graph)
}

// FamilyNames lists the graph families Family accepts, sorted.
func FamilyNames() []string {
	names := append(graph.FamilyNames(), "figure1")
	sort.Strings(names)
	return names
}
