// Command radiosim runs broadcast scenarios through the radiobcast facade.
// Scheme selection is registry driven: -scheme accepts the name of any
// registered scheme (-schemes lists them), so new algorithms appear here
// without touching this file.
//
// Single-run mode prints one outcome, with an optional round-by-round
// trace in the paper's Figure 1 annotation style:
//
//	radiosim -family grid -n 16 -scheme b -source 0 [-trace] [-mu text]
//	radiosim -family figure1 -scheme back -trace
//	radiosim -graph edges.txt -scheme barb -source 3 -r 0
//	radiosim -scheme onebit -family path -n 12 -quick
//
// Batch mode (-sweep) runs the full families × sizes × schemes × sources ×
// fault-rates grid as one job on a worker pool sharing frozen graphs,
// labelings and per-worker engines, streaming one table row per cell:
//
//	radiosim -sweep -family path,grid -sizes 64,256 -scheme b,back
//	radiosim -sweep -family grid -sizes 256 -scheme b -faults 0,0.01,0.05 -repeats 5
//
// Both modes accept -timeout to bound the whole job: on expiry the run
// stops within one engine round (single mode) or one sweep cell (batch
// mode), prints the partial results observed so far, and exits non-zero:
//
//	radiosim -sweep -family grid -sizes 4096 -scheme b -timeout 5s
//
// Both modes accept -cpuprofile / -memprofile to capture pprof profiles of
// the run, so engine changes can be measured:
//
//	radiosim -sweep -family grid -sizes 1024 -scheme b -cpuprofile cpu.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"radiobcast"
	"radiobcast/internal/cliutil"
)

func main() {
	var (
		family   = flag.String("family", "figure1", "graph family; comma-separated list in -sweep mode (see -families)")
		n        = flag.Int("n", 16, "target graph size (single-run mode)")
		sizes    = flag.String("sizes", "", "comma-separated graph sizes (-sweep mode; default: -n)")
		file     = flag.String("graph", "", "read graph from edge-list file instead of -family (single-run mode)")
		scheme   = flag.String("scheme", "b", "registered scheme name; comma-separated list in -sweep mode (see -schemes)")
		source   = flag.Int("source", -1, "source node (default: the network's)")
		sources  = flag.String("sources", "", "comma-separated source nodes (-sweep mode; negative counts from the end)")
		r        = flag.Int("r", 0, "coordinator node for barb")
		mu       = flag.String("mu", "hello", "source message µ")
		workers  = flag.Int("workers", 0, "worker-pool size of -sweep mode (0 = GOMAXPROCS)")
		trace    = flag.Bool("trace", false, "print the round-by-round trace (single-run mode)")
		quick    = flag.Bool("quick", false, "reduce labeling-search effort")
		doSweep  = flag.Bool("sweep", false, "batch mode: run the full parameter grid as one sweep")
		faults   = flag.String("faults", "", "comma-separated fault rates to sweep (e.g. 0,0.01,0.05)")
		repeats  = flag.Int("repeats", 1, "runs per sweep cell (distinct fault seeds)")
		seed     = flag.Int64("seed", 1, "base seed of the deterministic fault model")
		timeout  = cliutil.TimeoutFlag(0, "the whole job, printing partial results")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		listFam  = flag.Bool("families", false, "list graph families and exit")
		listSchm = flag.Bool("schemes", false, "list registered schemes and exit")

		showVersion = cliutil.VersionFlag("radiosim")
	)
	flag.Parse()
	showVersion()

	if *listFam {
		for _, name := range radiobcast.FamilyNames() {
			fmt.Println(name)
		}
		return
	}
	if *listSchm {
		fmt.Print(radiobcast.DescribeSchemes())
		return
	}

	startProfiles(*cpuProf, *memProf)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *doSweep {
		// Reject single-run-only flags instead of silently ignoring them
		// (a sweep over the wrong topology looks plausible in the table).
		for name, set := range map[string]bool{
			"-graph":  *file != "",
			"-trace":  *trace,
			"-quick":  *quick,
			"-source": *source >= 0,
			"-r":      *r != 0,
		} {
			if set {
				fail(fmt.Errorf("%s applies to single-run mode only (sweep mode takes -sources; see -h)", name))
			}
		}
		ok := runSweep(ctx, sweepArgs{
			families: *family, sizes: *sizes, n: *n, schemes: *scheme,
			sources: *sources, faults: *faults, repeats: *repeats,
			mu: *mu, workers: *workers, seed: *seed,
		})
		flushProfiles()
		if !ok {
			os.Exit(1)
		}
		return
	}
	runSingle(ctx, singleArgs{
		family: *family, n: *n, file: *file, scheme: *scheme,
		source: *source, r: *r, mu: *mu,
		trace: *trace, quick: *quick,
	})
	flushProfiles()
}

// flushProfiles finalizes any profiles requested via -cpuprofile /
// -memprofile. It runs on every exit path — fail() calls it before
// os.Exit, where deferred writers would be skipped — so failing runs
// (often exactly the ones worth profiling) still produce usable profiles.
var flushProfiles = func() {}

func startProfiles(cpuPath, memPath string) {
	flushed := false
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		cpuFile = f
	}
	flushProfiles = func() {
		if flushed {
			return
		}
		flushed = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "radiosim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "radiosim: %v\n", err)
			}
		}
	}
}

type singleArgs struct {
	family, file, scheme, mu string
	n, source, r             int
	trace, quick             bool
}

func runSingle(ctx context.Context, a singleArgs) {
	net, err := radiobcast.FamilyOrFile(a.family, a.n, a.file)
	if err != nil {
		fail(err)
	}
	net.Coordinated(a.r)
	if a.source >= 0 {
		net.At(a.source)
	}

	s, ok := radiobcast.Lookup(a.scheme)
	if !ok {
		fail(fmt.Errorf("unknown scheme %q (use -schemes)", a.scheme))
	}
	fmt.Printf("network: %v, source %d, scheme %s: %s\n", net, net.Source, s.Name(), s.Describe())

	opts := []radiobcast.Option{radiobcast.WithMessage(a.mu)}
	if a.quick {
		opts = append(opts, radiobcast.WithQuick())
	}
	var tr *radiobcast.Trace
	if a.trace {
		tr = &radiobcast.Trace{}
		opts = append(opts, radiobcast.WithTrace(tr))
	}

	sess := radiobcast.NewSession()
	out, err := sess.Run(ctx, net, a.scheme, opts...)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && out != nil {
			fmt.Printf("TIMED OUT after %d rounds — partial results:\n", out.Result.Rounds)
			report(out)
		}
		fail(err)
	}
	report(out)

	if err := radiobcast.Verify(out); err != nil {
		fail(err)
	}
	fmt.Println("verified: the scheme's guarantees hold on this run")

	if a.trace {
		fmt.Print(tr.String())
		fmt.Println("per-node annotations (label, {transmit rounds}, (receive rounds)):")
		fmt.Print(radiobcast.Annotate(out))
	}
}

type sweepArgs struct {
	families, sizes, schemes, sources, faults, mu string
	n, repeats, workers                           int
	seed                                          int64
}

// runSweep streams the grid straight off Session.Sweep's iterator: one
// table row per finished cell, in completion order. On timeout the
// iterator yields the context error last; the cells finished before the
// cut-off have already been printed, so the summary is the partial result.
func runSweep(ctx context.Context, a sweepArgs) bool {
	spec := radiobcast.SweepSpec{
		Families:   splitList(a.families),
		Schemes:    splitList(a.schemes),
		Sizes:      parseInts(a.sizes, []int{a.n}),
		Sources:    parseInts(a.sources, nil),
		FaultRates: parseFloats(a.faults),
		Repeats:    a.repeats,
		Mu:         a.mu,
		Workers:    a.workers,
		Seed:       a.seed,
	}

	fmt.Printf("%-12s %6s %-12s %5s %6s %4s  %-9s %7s %8s %s\n",
		"family", "n", "scheme", "src", "drop", "rep", "informed", "round", "tx", "status")
	cells, failures := 0, 0
	sess := radiobcast.NewSession()
	for c, err := range sess.Sweep(ctx, spec) {
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				fmt.Printf("TIMED OUT after %d cells, %d failed (partial sweep)\n", cells, failures)
				return false
			}
			fail(err)
		}
		cells++
		status := "ok"
		switch {
		case c.Err != nil:
			status = c.Err.Error()
			failures++
		case c.Verified:
			status = "verified"
		}
		informed, round, tx := "-", 0, 0
		if c.Outcome != nil {
			informed = fmt.Sprintf("%v", c.Outcome.AllInformed)
			round = c.Outcome.CompletionRound
			tx = c.Outcome.Result.TotalTransmissions
		}
		fmt.Printf("%-12s %6d %-12s %5d %6g %4d  %-9s %7d %8d %s\n",
			c.Cell.Family, c.N, c.Cell.Scheme, c.Cell.Source,
			c.Cell.FaultRate, c.Cell.Repeat, informed, round, tx, status)
	}
	fmt.Printf("%d cells, %d failed\n", cells, failures)
	return failures == 0
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string, dflt []int) []int {
	if strings.TrimSpace(s) == "" {
		return dflt
	}
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			fail(fmt.Errorf("bad integer %q: %v", p, err))
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fail(fmt.Errorf("bad rate %q: %v", p, err))
		}
		out = append(out, v)
	}
	return out
}

// report prints the unified outcome: the common block for every scheme,
// then whatever scheme-specific fields are populated.
func report(out *radiobcast.Outcome) {
	l := out.Labeling
	switch {
	case l.Schedule != nil:
		fmt.Printf("no labels: centralized schedule of %d rounds\n", len(l.Schedule))
	case l.Labels != nil:
		fmt.Printf("labels: %d-bit, %d distinct\n", l.Bits(), l.Distinct())
	}
	if z := l.Z(); z >= 0 {
		fmt.Printf("acknowledgement initiator z = node %d\n", z)
	}
	if r := l.R(); r >= 0 {
		fmt.Printf("coordinator r = node %d\n", r)
	}
	fmt.Printf("broadcast complete: %v, completion round %d", out.AllInformed, out.CompletionRound)
	if out.Scheme == "b" || out.Scheme == "back" {
		// Theorem 2.9 / 3.9: completion within 2n−3 rounds.
		fmt.Printf(" (bound 2n−3 = %d)", 2*out.Graph.N()-3)
	}
	fmt.Println()
	if out.AckRound > 0 {
		fmt.Printf("source acknowledged in round %d\n", out.AckRound)
	}
	if out.KnowsCompleteRound != nil {
		fmt.Printf("all nodes know completion by round %d (total %d rounds, T = %d)\n",
			out.KnowsCompleteRound[0], out.Result.Rounds, out.T)
	}
	fmt.Printf("traffic: %d transmissions, max message %d bits\n",
		out.Result.TotalTransmissions, out.Result.MaxMessageBits)
}

func fail(err error) {
	flushProfiles()
	fmt.Fprintf(os.Stderr, "radiosim: %v\n", err)
	os.Exit(1)
}
