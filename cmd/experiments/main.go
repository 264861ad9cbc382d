// Command experiments regenerates the paper's evaluation artifacts: Figure 1
// and every theorem-derived table. By default it runs the full registry;
// use -exp to select specific experiments. EXPERIMENTS.md is its full
// output, checked by TestExperimentsGolden and refreshed with
//
//	go run ./cmd/experiments -o EXPERIMENTS.md
//
// Usage:
//
//	experiments [-exp FIG1,T29,...] [-table fault] [-quick] [-workers N] [-csv] [-o file]
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"radiobcast/internal/cliutil"
	"radiobcast/internal/experiments"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment IDs, or \"all\"")
		tableFlag = flag.String("table", "", "named experiment group (fault, figure, theorems, baseline, ablation); overrides -exp")
		quick     = flag.Bool("quick", false, "run reduced sweeps")
		workers   = flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		outFile   = flag.String("o", "", "write output to file instead of stdout")
		list      = flag.Bool("list", false, "list registered experiments and exit")

		showVersion = cliutil.VersionFlag("experiments")
	)
	flag.Parse()
	showVersion()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	cfg := experiments.Config{Quick: *quick, Workers: *workers}
	var entries []experiments.Entry
	switch {
	case *tableFlag != "":
		ids, ok := experiments.Groups[strings.TrimSpace(*tableFlag)]
		if !ok {
			names := make([]string, 0, len(experiments.Groups))
			for name := range experiments.Groups {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(os.Stderr, "experiments: unknown table group %q (have: %s)\n",
				*tableFlag, strings.Join(names, ", "))
			os.Exit(2)
		}
		for _, id := range ids {
			e, _ := experiments.Find(id)
			entries = append(entries, e)
		}
	case *expFlag == "all":
		entries = experiments.Registry
	default:
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			entries = append(entries, e)
		}
	}

	out := os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	if err := write(out, os.Stderr, entries, cfg, *csv); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// write runs the entries in order and writes their tables to out, as
// aligned text or CSV, noting each entry on progress as it starts.
func write(out, progress io.Writer, entries []experiments.Entry, cfg experiments.Config, csv bool) error {
	for _, e := range entries {
		fmt.Fprintf(progress, "running %s: %s\n", e.ID, e.Desc)
		tables, err := e.Gen(cfg)
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.ID, err)
		}
		for _, t := range tables {
			if csv {
				fmt.Fprintln(out, t.CSV())
			} else {
				fmt.Fprintln(out, t.Render())
			}
		}
	}
	return nil
}
