// Command bench is the end-to-end benchmark of radiobcastd. It starts the
// shipped daemon as a child process on loopback, drives it with one of
// four traffic mixes through the typed radiobcast/client, checks every
// response, and prints the end-to-end metrics of BENCHMARK.json as one
// JSON line. With --trace 1 it also replays the workload in-process with
// a span around every layer call, times each layer on the workload's
// cells, and prints the per-layer metrics instead.
//
//	bash bench/run.sh --workload run-hot --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -compare a.jsonl b.jsonl
//
// README.md describes the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one run: the benchmark must finish within 180 s of
// its start, so a hung daemon turns into an error well before that.
const runDeadline = 170 * time.Second

// warmup is the unrecorded load before every measured window.
const warmup = 5 * time.Second

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	warmup   time.Duration // warmup, except in the smoke test
	trace    bool
	daemon   string
	work     string
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -record file: a result with the run it came
// from, and the end-to-end metrics the run measured but BENCHMARK.json
// does not gate.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Result   json.RawMessage   `json:"result"`
	Ungated  map[string]metric `json:"ungated"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		o        options
		seconds  float64
		trace    int
		recordTo string
		compare  bool
		specPath string
	)
	flag.StringVar(&o.workload, "workload", "", "traffic mix: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&seconds, "seconds", 15, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced in-process pass and prints per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "radiobcastd binary to run (run.sh builds it)")
	flag.StringVar(&o.work, "work", ".bench_build/work", "directory for stores and span files")
	flag.StringVar(&recordTo, "record", "", "also append the result, with its workload and seed, to this file")
	flag.BoolVar(&compare, "compare", false, "compare the two record files given as arguments")
	flag.StringVar(&specPath, "spec", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		ok, err := runCompare(os.Stdout, specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	switch {
	case !slices.Contains(workloadNames, o.workload):
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (known: %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	case seconds <= 0 || (trace != 0 && trace != 1):
		fmt.Fprintln(os.Stderr, "bench: need --seconds > 0 and --trace 0 or 1")
		return 2
	case o.daemon == "":
		fmt.Fprintln(os.Stderr, "bench: -daemon is required (bench/run.sh builds and passes it)")
		return 2
	}
	o.window = time.Duration(seconds * float64(time.Second))
	o.warmup = warmup
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	rep, err := run(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.result(o.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encoding the result: %v\n", err)
		return 1
	}
	if recordTo != "" {
		if err := appendRecord(recordTo, record{o.workload, o.seed, o.trace, line, rep.ungated}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending to %s: %w", path, err)
	}
	return f.Close()
}
