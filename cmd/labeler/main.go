// Command labeler computes a labeling scheme for a graph and prints the
// labels, optionally with the stage decomposition or a Graphviz DOT export.
// This is the "central monitor" role from the paper's motivating scenario:
// an entity that knows the topology and assigns short labels enabling
// universal broadcast. Any registered scheme works (-schemes lists them).
//
// A labeling is the paper's durable artifact: -save writes it in the
// portable binary wire format (graph, labels and all scheme structure),
// and -load reads one back in place of computing it, so the central
// monitor and the broadcast runner can be different processes on
// different machines:
//
//	labeler -family grid -n 64 -scheme back -save grid.labels
//	labeler -load grid.labels                    # inspect a shipped labeling
//
// With -sources, the monitor labels one graph for many designated sources
// in a single invocation, fanning the independent (graph, source)
// labelings across -workers goroutines through a shared Session (so
// sources that share an anchor, as every source of barb or roundrobin
// does, coalesce instead of recomputing):
//
//	labeler -family grid -n 64 -scheme b -sources 0,7,42
//	labeler -family path -n 1024 -scheme back -sources all -save path.labels
//
// With -store, labelings go through the persistent labeling store: ones
// already on disk are served from it, new ones are written back, and any
// other process pointing at the same directory (radiobcastd -store, a
// later labeler) reuses them bit-identically. -populate bulk-fills a
// store by fanning a families × sizes × schemes × sources product
// through one Session:
//
//	labeler -store /var/lib/radiobcast/labelings -family grid -n 64 -scheme b
//	labeler -store dir -populate "families=path,grid;sizes=64,256;schemes=b,back,gjp"
//
// Usage:
//
//	labeler -family grid -n 25 -scheme b -stages
//	labeler -family figure1 -scheme back -dot out.dot
//	labeler -graph edges.txt -scheme barb -r 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"radiobcast"
	"radiobcast/internal/cliutil"
	"radiobcast/internal/graph"
	"radiobcast/internal/sweep"
)

func main() {
	var (
		family   = flag.String("family", "figure1", "graph family (see -families)")
		n        = flag.Int("n", 16, "target graph size")
		file     = flag.String("graph", "", "read graph from edge-list file")
		scheme   = flag.String("scheme", "b", "registered scheme name (see -schemes)")
		source   = flag.Int("source", -1, "designated source (default: the network's)")
		sources  = flag.String("sources", "", "label for many sources: comma-separated node list, or \"all\" (one labeling serves every source of barb, roundrobin, colorrobin and flooding)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "labeling workers for -sources")
		r        = flag.Int("r", 0, "coordinator for barb")
		stages   = flag.Bool("stages", false, "print the stage decomposition")
		dot      = flag.String("dot", "", "write Graphviz DOT to file")
		save     = flag.String("save", "", "write the labeling in the portable wire format to this file")
		load     = flag.String("load", "", "read a labeling from this file instead of computing one")
		storeDir = flag.String("store", "", "persistent labeling-store directory: read labelings from it, write new ones back")
		populate = flag.String("populate", "", `bulk-populate the store: "families=a,b;sizes=16,64;schemes=b,back[;sources=0,7]" (requires -store)`)
		timeout  = cliutil.TimeoutFlag(0, "the labeling computation")
		listSchm = flag.Bool("schemes", false, "list registered schemes and exit")
		listFam  = flag.Bool("families", false, "list graph families and exit")

		showVersion = cliutil.VersionFlag("labeler")
	)
	flag.Parse()
	showVersion()

	if *listSchm {
		fmt.Print(radiobcast.DescribeSchemes())
		return
	}
	if *listFam {
		for _, name := range radiobcast.FamilyNames() {
			fmt.Println(name)
		}
		return
	}

	if *populate != "" {
		if *storeDir == "" {
			fail(fmt.Errorf("-populate requires -store"))
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		if err := populateStore(ctx, *storeDir, *populate, *workers); err != nil {
			fail(err)
		}
		return
	}

	var l *radiobcast.Labeling
	var net *radiobcast.Network
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fail(err)
		}
		l, err = radiobcast.ReadLabeling(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		net = radiobcast.NewNetwork(l.Graph).At(l.Source)
		net.Name = *load
		fmt.Printf("loaded %s: scheme %s, source %d\n", *load, l.Scheme, l.Source)
	} else {
		var err error
		net, err = radiobcast.FamilyOrFile(*family, *n, *file)
		if err != nil {
			fail(err)
		}
		net.Coordinated(*r)
		if *source >= 0 {
			net.At(*source)
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		if *sources != "" {
			if err := labelMany(ctx, net, *scheme, *sources, *workers, *save, *storeDir); err != nil {
				fail(err)
			}
			return
		}
		if *storeDir != "" {
			sess := radiobcast.NewSession(radiobcast.WithStore(*storeDir))
			if err := sess.Err(); err != nil {
				fail(err)
			}
			l, err = sess.Label(ctx, net, *scheme)
			if cerr := sess.Close(nil); err == nil {
				err = cerr
			}
		} else {
			l, err = radiobcast.LabelNetworkCtx(ctx, net, *scheme)
		}
		if err != nil {
			fail(err)
		}
	}
	*scheme = l.Scheme

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fail(err)
		}
		if err := radiobcast.WriteLabeling(f, l); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *save)
	}

	if l.Labels == nil {
		fmt.Printf("network: %v; scheme %s assigns no labels (schedule of %d rounds)\n",
			net, *scheme, len(l.Schedule))
		if *stages || *dot != "" {
			fail(fmt.Errorf("-stages and -dot need a labeling scheme, %s has none", *scheme))
		}
		return
	}
	fmt.Printf("network: %v; scheme %s: length %d bits, %d distinct labels\n",
		net, *scheme, l.Bits(), l.Distinct())
	for v, lab := range l.Labels {
		marks := ""
		if v == l.Z() {
			marks += "  (z: acknowledgement initiator)"
		}
		if v == l.R() {
			marks += "  (r: coordinator)"
		}
		fmt.Printf("node %3d: %s%s\n", v, lab, marks)
	}

	if *stages {
		if l.Stages == nil {
			fail(fmt.Errorf("scheme %s has no stage decomposition", *scheme))
		}
		fmt.Printf("\nstage decomposition (ℓ = %d):\n", l.Stages.L)
		for i := 1; i <= l.Stages.NumStored(); i++ {
			s := l.Stages.Stage(i)
			fmt.Printf("stage %d: DOM=%v NEW=%v FRONTIER=%v\n", i, s.Dom, s.New, s.Frontier)
		}
	}

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := graph.WriteDOT(f, net.Graph, l.Strings()); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *dot)
	}
}

// labelMany fans independent (graph, source) labelings across workers
// through one shared Session. Each source's labeling is summarized on its
// own line (in source order); with -save, each is written to
// <save>.s<source> in the wire format. Sources that share an anchor
// (duplicates, or every source of a scheme whose labels do not depend
// on it) are served by the Session cache — or coalesced onto the
// in-flight computation when workers race — rather than recomputed.
func labelMany(ctx context.Context, net *radiobcast.Network, scheme, list string, workers int, savePrefix, storeDir string) error {
	srcs, err := parseSources(list, net.Graph.N())
	if err != nil {
		return err
	}
	// Shared across workers: freeze once up front (CSR and fingerprint)
	// so every later use is a read.
	net.Graph.Freeze()
	var opts []radiobcast.SessionOption
	if storeDir != "" {
		opts = append(opts, radiobcast.WithStore(storeDir))
	}
	sess := radiobcast.NewSession(opts...)
	if err := sess.Err(); err != nil {
		return err
	}
	defer sess.Close(nil)

	type result struct {
		src int
		l   *radiobcast.Labeling
	}
	results, err := sweep.MapErr(srcs, sweep.Workers(len(srcs), workers), func(src int) (result, error) {
		one := radiobcast.NewNetwork(net.Graph).At(src)
		one.Name = net.Name
		one.Coordinated(net.Coordinator)
		l, err := sess.Label(ctx, one, scheme)
		if err != nil {
			return result{}, fmt.Errorf("source %d: %w", src, err)
		}
		if savePrefix != "" {
			path := fmt.Sprintf("%s.s%d", savePrefix, src)
			f, err := os.Create(path)
			if err != nil {
				return result{}, err
			}
			if err := radiobcast.WriteLabeling(f, l); err != nil {
				f.Close()
				return result{}, err
			}
			if err := f.Close(); err != nil {
				return result{}, err
			}
		}
		return result{src: src, l: l}, nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("network: %v; scheme %s, %d sources, %d workers\n",
		net, scheme, len(srcs), sweep.Workers(len(srcs), workers))
	for _, r := range results {
		line := fmt.Sprintf("source %4d: length %d bits, %d distinct labels", r.src, r.l.Bits(), r.l.Distinct())
		if r.l.Stages != nil {
			line += fmt.Sprintf(", ℓ = %d", r.l.Stages.L)
		}
		if savePrefix != "" {
			line += fmt.Sprintf("  → %s.s%d", savePrefix, r.src)
		}
		fmt.Println(line)
	}
	st := sess.Stats()
	fmt.Printf("session: %d computed, %d cache hits, %d coalesced\n", st.Misses, st.Hits, st.Coalesced)
	if storeDir != "" {
		fmt.Printf("store: %d hits, %d writes, %d entries, %d bytes\n",
			st.StoreHits, st.StoreWrites, st.StoreEntries, st.StoreBytes)
	}
	return nil
}

// populateStore bulk-fills a labeling store: the families × sizes ×
// schemes × sources product is fanned across workers through one shared
// Session backed by the store, so entries already on disk are skipped
// and new ones are computed once and persisted. Combos a scheme cannot
// label (gjp and onebit are not universal) are reported but do not stop
// the rest; any failure makes the exit status nonzero.
func populateStore(ctx context.Context, dir, spec string, workers int) error {
	families, sizes, schemes, srcs, err := parsePopulate(spec)
	if err != nil {
		return err
	}
	sess := radiobcast.NewSession(radiobcast.WithStore(dir), radiobcast.WithStorePreload(0))
	if err := sess.Err(); err != nil {
		return err
	}
	defer sess.Close(nil)

	var jobs []job
	for _, fam := range families {
		for _, n := range sizes {
			for _, scheme := range schemes {
				for _, src := range srcs {
					jobs = append(jobs, job{family: fam, n: n, scheme: scheme, source: src})
				}
			}
		}
	}
	type outcome struct {
		line string
		ok   bool
	}
	results, _ := sweep.MapErr(jobs, sweep.Workers(len(jobs), workers), func(j job) (outcome, error) {
		// The Session's graph cache builds each (family, size) once and
		// shares it across every scheme and source combo.
		net, err := sess.Family(j.family, j.n)
		if err == nil && (j.source < 0 || j.source >= net.Graph.N()) {
			err = errors.New("out of range")
		}
		var l *radiobcast.Labeling
		if err == nil {
			l, err = sess.Label(ctx, net.At(j.source), j.scheme)
		}
		if err != nil {
			return outcome{fmt.Sprintf("%s/%d %s source %d: %v", j.family, j.n, j.scheme, j.source, err), false}, nil
		}
		return outcome{fmt.Sprintf("%s/%d %s source %d: %d bits, %d distinct", j.family, j.n, j.scheme, j.source, l.Bits(), l.Distinct()), true}, nil
	})
	failures := 0
	for _, r := range results {
		fmt.Println(r.line)
		if !r.ok {
			failures++
		}
	}
	st := sess.Stats()
	fmt.Printf("store %s: %d combos, %d computed, %d store hits, %d cache hits, %d coalesced, %d written, %d entries, %d bytes\n",
		dir, len(jobs), st.Misses, st.StoreHits, st.Hits, st.Coalesced, st.StoreWrites, st.StoreEntries, st.StoreBytes)
	if failures > 0 {
		return fmt.Errorf("%d of %d combos failed", failures, len(jobs))
	}
	return nil
}

type job struct {
	family string
	n      int
	scheme string
	source int
}

// parsePopulate parses the -populate spec: semicolon-separated
// key=comma-list pairs; families, sizes and schemes are required,
// sources defaults to 0.
func parsePopulate(spec string) (families []string, sizes []int, schemes []string, srcs []int, err error) {
	srcs = []int{0}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("-populate: %q is not key=value", part)
		}
		vals := strings.Split(v, ",")
		switch k {
		case "families":
			families = vals
		case "schemes":
			schemes = vals
		case "sizes", "sources":
			var ints []int
			for _, s := range vals {
				i, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return nil, nil, nil, nil, fmt.Errorf("-populate: %q is not an integer", s)
				}
				ints = append(ints, i)
			}
			if k == "sizes" {
				sizes = ints
			} else {
				srcs = ints
			}
		default:
			return nil, nil, nil, nil, fmt.Errorf("-populate: unknown key %q", k)
		}
	}
	if len(families) == 0 || len(sizes) == 0 || len(schemes) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("-populate: families, sizes and schemes are all required")
	}
	return families, sizes, schemes, srcs, nil
}

// parseSources expands the -sources flag: "all" means every node, else a
// comma-separated node list.
func parseSources(list string, n int) ([]int, error) {
	if list == "all" {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-sources: %q is not a node index", part)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("-sources: node %d out of range [0,%d)", v, n)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sources: empty list")
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "labeler: %v\n", err)
	os.Exit(1)
}
