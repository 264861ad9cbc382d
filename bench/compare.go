package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// samples maps workload → metric → values, one per recorded run.
type samples map[string]map[string][]float64

func readRecords(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := samples{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var rec record
		var res result
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if s[rec.Workload] == nil {
			s[rec.Workload] = map[string][]float64{}
		}
		for _, ms := range []map[string]metric{res.Metrics, rec.Ungated} {
			for name, m := range ms {
				s[rec.Workload][name] = append(s[rec.Workload][name], m.Value)
			}
		}
	}
	return s, sc.Err()
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method.
func quartiles(xs []float64) (q1, q3 float64) {
	d := slices.Sorted(slices.Values(xs))
	n := len(d)
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := m - 4*j
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// higherIsBetter names the ungated metrics a run records for which a
// larger value is better.
var higherIsBetter = map[string]bool{"throughput_rps": true, "cells_per_s": true}

// runCompare prints, for every workload × end-to-end metric, the median
// of each record file, how much worse b is than a, each side's spread,
// and the metric's bound. It reports false when a metric of BENCHMARK.json
// is missing, b is worse than a by more than its bound, or a spread
// exceeds its bound. The metrics a run records but BENCHMARK.json does
// not gate follow, marked ungated, and never fail the comparison.
func runCompare(out io.Writer, specPath, aPath, bPath string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\truns\tmedian a\tmedian b\tworse by\tbound\tspread a\tspread b\tverdict\t")
	for _, w := range spec.Workloads {
		gated := map[string]bool{}
		for _, m := range spec.EndToEnd {
			gated[m.Name] = true
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d/%d\t\t\t\t\t\t\tmissing\t\n", w.Name, m.Name, len(va), len(vb))
				ok = false
				continue
			}
			worse, sa, sb := contrast(va, vb, m.Better == "higher")
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
			case max(sa, sb) > m.Bound:
				verdict = "too noisy"
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.4g\t%.4g\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%s\t\n",
				w.Name, m.Name, len(va), len(vb), median(va), median(vb), 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
		var names []string
		for name := range a[w.Name] {
			if !gated[name] && len(b[w.Name][name]) > 0 {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			va, vb := a[w.Name][name], b[w.Name][name]
			worse, sa, sb := contrast(va, vb, higherIsBetter[name])
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.4g\t%.4g\t%+.2f%%\t\t%.2f%%\t%.2f%%\tungated\t\n",
				w.Name, name, len(va), len(vb), median(va), median(vb), 100*worse, 100*sa, 100*sb)
		}
	}
	return ok, tw.Flush()
}

// contrast returns how much worse the median of b is than that of a, as a
// share of a's, and the spread of each.
func contrast(a, b []float64, higherBetter bool) (worse, spreadA, spreadB float64) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if higherBetter {
		worse = -worse
	}
	return worse, spread(a), spread(b)
}
