package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// A run times the set-up pass in two batches of rounds, one before the
	// measured window and one after it, so setup_s (the median round)
	// samples the host at two moments. Each round starts a daemon and
	// sends the workload's distinct requests. A batch takes at least
	// minSetupRounds rounds and keeps going while its rounds took less
	// than setupBudget (up to maxSetupRounds), so a set-up of a few
	// milliseconds gets enough rounds for a steady median.
	minSetupRounds = 2
	maxSetupRounds = 30
	setupBudget    = 1500 * time.Millisecond
	// rssEvery is how often the daemon's resident set is sampled in the
	// measured window.
	rssEvery = 100 * time.Millisecond
	// opTimeout bounds one request, so a stalled daemon fails the run
	// instead of hanging it.
	opTimeout = 30 * time.Second
)

// report is what a run measured: the end-to-end metrics BENCHMARK.json
// gates, the end-to-end metrics a run only records, and the per-layer
// metrics of a traced run.
type report struct {
	attempted, failed    int64
	e2e, ungated, layers map[string]metric
}

func (r *report) result(trace bool) result {
	m := r.e2e
	if trace {
		m = r.layers
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// run measures one workload against the daemon and, with o.trace, adds
// the traced in-process pass. Human-readable tables go to out.
func run(ctx context.Context, o options, out io.Writer) (*report, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	setup, ls, err := measure(ctx, o, w, dir)
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: ls.attempted, failed: ls.failed}
	_, sweep := w.(*sweepMix)
	rep.e2e, rep.ungated = endToEnd(setup, ls, o.window, sweep)
	printLoad(out, o, setup, ls)
	if !o.trace {
		return rep, nil
	}
	rep.layers = windowLayers(ls)
	tp, err := tracedPass(ctx, o, w, dir, out, rep.layers["httpd.handler_ms"].Value, mean(ls.latMs))
	if err != nil {
		return nil, err
	}
	rep.attempted += tp.attempted
	rep.failed += tp.failed
	for k, v := range tp.layers {
		rep.layers[k] = v
	}
	return rep, nil
}

// measure runs the daemon side of a run: the untimed populate step, the
// first batch of timed set-up rounds, warm-up and the measured window on
// the last daemon started, then the second batch of set-up rounds.
func measure(ctx context.Context, o options, w workload, dir string) ([]float64, *loadStats, error) {
	// Both batches of set-up rounds start from the same daemon state: the
	// second runs on a copy of it made before the first. The window may
	// change the state; label-cold's writes a blob per request, which a
	// restarted daemon would preload.
	first, second := filepath.Join(dir, "daemon"), filepath.Join(dir, "daemon-after")
	if err := os.MkdirAll(first, 0o755); err != nil {
		return nil, nil, err
	}
	if err := populateDaemon(ctx, o.daemon, w, first); err != nil {
		return nil, nil, err
	}
	if err := os.CopyFS(second, os.DirFS(first)); err != nil {
		return nil, nil, err
	}
	setup, d, err := setupRounds(ctx, o, w, first, nil)
	if err != nil {
		return nil, nil, err
	}
	ls, err := closedLoop(ctx, w, d, o.warmup, o.window)
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	if err := d.stop(); err != nil {
		return nil, nil, err
	}
	if setup, d, err = setupRounds(ctx, o, w, second, setup); err != nil {
		return nil, nil, err
	}
	return setup, ls, d.stop()
}

// setupRounds appends one batch of set-up rounds to times. Every round
// starts a daemon and sends the set-up pass; each daemon but the last is
// stopped, and the last is returned still serving.
func setupRounds(ctx context.Context, o options, w workload, dir string, times []float64) ([]float64, *daemon, error) {
	var d *daemon
	for n, spent := 0, time.Duration(0); n < maxSetupRounds && (n < minSetupRounds || spent < setupBudget); n++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(ctx, o.daemon, w.clients(), w.daemonArgs(dir)...); err != nil {
			return nil, nil, err
		}
		if err := w.setup(ctx, d.client); err != nil {
			d.kill()
			return nil, nil, fmt.Errorf("set-up pass: %w", err)
		}
		took := time.Since(start)
		times = append(times, took.Seconds())
		spent += took
	}
	return times, d, nil
}

// populateDaemon fills the store of a populator workload through a first
// daemon, stopped with SIGTERM so the store is drained to disk. Other
// workloads need no populating.
func populateDaemon(ctx context.Context, bin string, w workload, dir string) error {
	p, ok := w.(populator)
	if !ok {
		return nil
	}
	d, err := startDaemon(ctx, bin, w.clients(), w.daemonArgs(dir)...)
	if err != nil {
		return err
	}
	err = p.populate(ctx, d.client)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("populating the store: %w", err)
	}
	return nil
}

// loadStats is the outcome of the closed loop.
type loadStats struct {
	clients           int
	attempted, failed int64
	errs              []error
	latMs             []float64 // successful operations completed in the window, sorted
	before, after     snapshot  // daemon state at the window's edges
	rssMB             float64   // median resident set over the window
	peakMB            float64   // peak resident set (VmHWM) at the window's end
}

// closedLoop runs w.clients() clients, each sending its next request as
// soon as the previous one is answered, for warmup plus window. Requests
// are numbered from one shared counter, so the request sequence depends
// only on the seed. Operations completing inside the window give the
// latency samples; failures anywhere count.
func closedLoop(ctx context.Context, w workload, d *daemon, warmup, window time.Duration) (*loadStats, error) {
	ls := &loadStats{clients: w.clients()}
	start := time.Now()
	winStart, winEnd := start.Add(warmup), start.Add(warmup+window)

	var (
		next, attempted, failed atomic.Int64
		mu                      sync.Mutex
		wg                      sync.WaitGroup
	)
	lats := make([][]time.Duration, ls.clients)
	for c := range lats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !d.exited() {
				t0 := time.Now()
				if !t0.Before(winEnd) {
					return
				}
				i := int(next.Add(1) - 1)
				octx, cancel := context.WithTimeout(ctx, opTimeout)
				err := w.do(octx, d.client, i)
				cancel()
				t1 := time.Now()
				attempted.Add(1)
				if err != nil {
					failed.Add(1)
					mu.Lock()
					if len(ls.errs) < 5 {
						ls.errs = append(ls.errs, fmt.Errorf("request %d: %w", i, err))
					}
					mu.Unlock()
					continue
				}
				if !t1.Before(winStart) && !t1.After(winEnd) {
					lats[c] = append(lats[c], t1.Sub(t0))
				}
			}
		}()
	}

	var snapErr error
	if sleepUntil(ctx, winStart) {
		ls.before, snapErr = d.snapshot(ctx)
	}
	if snapErr == nil {
		ls.rssMB, snapErr = sampleRSS(ctx, d.pid(), winEnd)
	}
	if snapErr == nil {
		if ls.after, snapErr = d.snapshot(ctx); snapErr == nil {
			ls.peakMB, snapErr = statusMB(d.pid(), "VmHWM")
		}
	}
	wg.Wait()
	switch {
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case d.exited():
		return nil, fmt.Errorf("radiobcastd exited during the load (%v):\n%s", d.err, &d.log)
	case snapErr != nil:
		return nil, snapErr
	}
	ls.attempted, ls.failed = attempted.Load(), failed.Load()
	for _, l := range lats {
		for _, v := range l {
			ls.latMs = append(ls.latMs, float64(v)/1e6)
		}
	}
	sort.Float64s(ls.latMs)
	if len(ls.latMs) == 0 {
		return nil, errors.Join(append([]error{errors.New("no operation completed in the measured window")}, ls.errs...)...)
	}
	return ls, nil
}

// sleepUntil waits until t; it reports false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// sampleRSS samples the process's resident set every rssEvery until end
// and returns the median sample in MiB. The median is the daemon's
// footprint while it serves; the peak depends on where garbage
// collections fall.
func sampleRSS(ctx context.Context, pid int, end time.Time) (float64, error) {
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	done := time.NewTimer(time.Until(end))
	defer done.Stop()
	var mb []float64
	for {
		select {
		case <-tick.C:
			v, err := statusMB(pid, "VmRSS")
			if err != nil {
				return 0, err
			}
			mb = append(mb, v)
		case <-done.C:
			return median(mb), nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// endToEnd computes the end-to-end metrics: those BENCHMARK.json gates,
// and those a run only records, because on a shared host they vary between
// runs by more than a 10% bound allows (README.md, "End-to-end metrics").
// cells_per_s is recorded for the sweep workload only.
func endToEnd(setup []float64, ls *loadStats, window time.Duration, sweep bool) (gated, ungated map[string]metric) {
	gated = map[string]metric{
		"setup_s": {median(setup), "s"},
		"rss_mb":  {ls.rssMB, "MB"},
	}
	rps := float64(len(ls.latMs)) / window.Seconds()
	ungated = map[string]metric{
		"throughput_rps": {rps, "ops/s"},
		"latency_p50_ms": {percentile(ls.latMs, 0.50), "ms"},
		"latency_p90_ms": {percentile(ls.latMs, 0.90), "ms"},
		"error_rate":     {ratio(float64(ls.failed), float64(ls.attempted)), "fraction"},
		"rss_peak_mb":    {ls.peakMB, "MB"},
	}
	// A percentile is recorded only with at least ten samples beyond it;
	// a sweep window holds a few hundred sweeps.
	if len(ls.latMs) >= 1000 {
		ungated["latency_p99_ms"] = metric{percentile(ls.latMs, 0.99), "ms"}
	}
	if sweep {
		ungated["cells_per_s"] = metric{sweepCells * rps, "cells/s"}
	}
	return gated, ungated
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	x := p * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

// median is Python's statistics.median.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is x/y, or 0 when there is nothing to divide by.
func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// v1Endpoints are the daemon's API endpoints as its metrics label them.
var v1Endpoints = []string{"label", "run", "run_labeled", "sweep"}

// delta is the change of a /metrics sample over the measured window.
func (ls *loadStats) delta(sample string) float64 {
	return ls.after.metrics[sample] - ls.before.metrics[sample]
}

// handler returns the seconds the daemon's handler spent on endpoint ep
// over the window, and the requests it served.
func (ls *loadStats) handler(ep string) (sec, n float64) {
	return ls.delta(fmt.Sprintf("radiobcastd_request_seconds_sum{endpoint=%q}", ep)),
		ls.delta(fmt.Sprintf("radiobcastd_request_seconds_count{endpoint=%q}", ep))
}

// windowLayers derives the per-layer metrics that come from the daemon's
// own counters over the measured window: exact, and free to collect.
func windowLayers(ls *loadStats) map[string]metric {
	var handlerSec, ops float64
	for _, ep := range v1Endpoints {
		sec, n := ls.handler(ep)
		handlerSec += sec
		ops += n
	}
	hits := ls.delta("radiobcastd_session_cache_hits_total")
	misses := ls.delta("radiobcastd_session_cache_misses_total")
	storeHits := ls.delta("radiobcastd_session_store_hits_total")
	coalesced := ls.delta("radiobcastd_session_cache_coalesced_total")
	lookups := hits + misses + storeHits + coalesced
	handlerMs := 1000 * ratio(handlerSec, ops)
	cpuMs := float64(ls.after.cpuTicks-ls.before.cpuTicks) * 1000 / ticksPerSecond
	return map[string]metric{
		"session.lru_hit_ratio":    {ratio(hits, lookups), "ratio"},
		"session.store_hit_ratio":  {ratio(storeHits, lookups), "ratio"},
		"session.misses_per_op":    {ratio(misses, ops), "count"},
		"session.coalesced_per_op": {ratio(coalesced, ops), "count"},
		"store.writes_per_op":      {ratio(ls.delta("radiobcastd_session_store_writes_total"), ops), "count"},
		"httpd.handler_ms":         {handlerMs, "ms"},
		"httpd.transport_ms":       {mean(ls.latMs) - handlerMs, "ms"},
		"daemon.cpu_ms_per_op":     {ratio(cpuMs, ops), "ms"},
	}
}

// printLoad writes the human-readable summary of the daemon side.
func printLoad(out io.Writer, o options, setup []float64, ls *loadStats) {
	fmt.Fprintf(out, "%s seed %d: %d operations in the %s window (%d clients), %d attempted, %d failed\n",
		o.workload, o.seed, len(ls.latMs), o.window, ls.clients, ls.attempted, ls.failed)
	for _, err := range ls.errs {
		fmt.Fprintf(out, "  failure: %v\n", err)
	}
	fmt.Fprintf(out, "  setup_s median %.4f of %d rounds, latency ms p50 %.3f p90 %.3f p99 %.3f max %.3f, daemon RSS median %.1f MB, VmHWM %.1f MB\n",
		median(setup), len(setup), percentile(ls.latMs, .5), percentile(ls.latMs, .9), percentile(ls.latMs, .99),
		ls.latMs[len(ls.latMs)-1], ls.rssMB, ls.peakMB)
	for _, ep := range v1Endpoints {
		if sec, n := ls.handler(ep); n > 0 {
			fmt.Fprintf(out, "  httpd.handler_ms %-11s %.4f over %.0f requests\n", ep, 1000*sec/n, n)
		}
	}
}
