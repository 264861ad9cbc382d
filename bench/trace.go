package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"radiobcast"
	"radiobcast/client"
	"radiobcast/internal/store"
)

// tracedOutcome is what the traced pass adds to a run.
type tracedOutcome struct {
	attempted, failed int64
	layers            map[string]metric
}

// tracedPass replays the workload in-process with spans, times each layer
// on the workload's distinct cells (the ladder), runs the two probes, and
// writes the spans to the work directory. handlerMs and clientMs are the
// daemon's mean handler time and the client-observed mean latency of the
// same run's window, for the time budget.
func tracedPass(ctx context.Context, o options, w workload, dir string, out io.Writer, handlerMs, clientMs float64) (*tracedOutcome, error) {
	tr := newTracer()
	res := &tracedOutcome{layers: map[string]metric{}}
	fail := func(errs []error) {
		res.failed += int64(len(errs))
		for _, err := range errs[:min(len(errs), 5)] {
			fmt.Fprintf(out, "  failure: %v\n", err)
		}
	}

	ops, errs, err := replay(ctx, w, tr, filepath.Join(dir, "replay"), o.window/2, o.workload)
	if err != nil {
		return nil, err
	}
	res.attempted += ops
	fail(errs)
	lt := tr.opLayers()
	lt.printBudget(out, o.workload, handlerMs, clientMs)
	for _, name := range []string{"httpd.decode", "httpd.encode", "client.decode"} {
		res.layers[name+"_ms"] = metric{lt.inclusivePerOp(name), "ms"}
	}

	cells := w.cells()
	lad, errs, err := runLadder(ctx, tr, cells, filepath.Join(dir, "ladder"))
	if err != nil {
		return nil, err
	}
	res.attempted += int64(len(cells))
	fail(errs)
	for k, v := range lad.metrics() {
		res.layers[k] = v
	}
	lad.print(out)

	errs, err = probeLarge(ctx, tr, res.layers)
	if err != nil {
		return nil, err
	}
	res.attempted++
	fail(errs)
	errs, err = probeSweep(ctx, tr, newSweepMix(o.seed).request(0), res.layers)
	if err != nil {
		return nil, err
	}
	res.attempted++
	fail(errs)

	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// replay sends the workload's request sequence, from request 0, through
// an in-process mirror of the daemon for duration d, one request at a
// time. Populating and the set-up pass are not traced.
func replay(ctx context.Context, w workload, tr *tracer, dir string, d time.Duration, name string) (int64, []error, error) {
	tr.on = false
	p, err := openInproc(ctx, w, dir, tr)
	if err != nil {
		return 0, nil, err
	}
	defer p.sess.Close(ctx)
	if err := w.setup(ctx, p); err != nil {
		return 0, nil, fmt.Errorf("replay set-up pass: %w", err)
	}

	tr.on = true
	var ops int64
	var errs []error
	for end := time.Now().Add(d); ops == 0 || time.Now().Before(end); ops++ {
		if err := ctx.Err(); err != nil {
			return ops, errs, err
		}
		tr.req = fmt.Sprintf("%s/%d", name, ops)
		id := tr.begin("op")
		err := w.do(ctx, p, int(ops))
		tr.end(id)
		if err != nil {
			errs = append(errs, fmt.Errorf("replay request %d: %w", ops, err))
		}
	}
	return ops, errs, nil
}

// ladderCell is every layer call of one cell, each timed on its own.
type ladderCell struct {
	scheme string
	ok     bool // the compute half succeeded; the store half needs it
	bytes  int
	rounds int

	build, freeze, fingerprint, label, marshal, put  time.Duration
	sessMiss, sessHit, runClean, verify              time.Duration
	runRate, runChurn                                time.Duration
	get, unmarshal, hitFreeze, hitFprint, sessStored time.Duration
}

// hit is the store-hit path of the Session's L2 read: read and hash the
// blob, decode it, freeze and fingerprint the decoded graph.
func (c *ladderCell) hit() time.Duration { return c.get + c.unmarshal + c.hitFreeze + c.hitFprint }

type ladder []ladderCell

// runLadder times each layer call on its own over the cells. The compute
// half labels each cell, marshals it and puts it into an open store; the
// hit half then reads every blob back through a reopened store, and
// finally through a Session whose LRU starts empty.
func runLadder(ctx context.Context, tr *tracer, cells []cell, dir string) (ladder, []error, error) {
	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	sess := radiobcast.NewSession()
	defer sess.Close(ctx)
	lad := make(ladder, len(cells))
	keys := make([]store.Key, len(cells))
	nets := make([]*radiobcast.Network, len(cells))
	var errs []error
	for i, c := range cells {
		tr.req = fmt.Sprintf("ladder/%d", i)
		lad[i].scheme = c.scheme
		if nets[i], err = lad[i].compute(ctx, tr, c, st, sess, &keys[i]); err != nil {
			errs = append(errs, fmt.Errorf("ladder cell %d (%s): %w", i, c.scheme, err))
			continue
		}
		lad[i].ok = true
	}
	if err := st.Close(); err != nil {
		return nil, nil, err
	}

	if st, err = store.Open(storeDir, store.Options{}); err != nil {
		return nil, nil, err
	}
	for i := range lad {
		if !lad[i].ok {
			continue
		}
		tr.req = fmt.Sprintf("ladder/%d", i)
		if err := lad[i].readBack(tr, st, keys[i]); err != nil {
			errs = append(errs, fmt.Errorf("ladder cell %d (%s): %w", i, cells[i].scheme, err))
		}
	}
	if err := st.Close(); err != nil {
		return nil, nil, err
	}

	stored := radiobcast.NewSession(radiobcast.WithStore(storeDir), radiobcast.WithStorePreload(0))
	if err := stored.Err(); err != nil {
		return nil, nil, err
	}
	defer stored.Close(ctx)
	for i, c := range cells {
		if !lad[i].ok {
			continue
		}
		tr.req = fmt.Sprintf("ladder/%d", i)
		hits := stored.StoreHits()
		lad[i].sessStored, err = tr.time("session.label_store_hit", func() error {
			_, err := stored.Label(ctx, nets[i], c.scheme)
			return err
		})
		if err == nil && stored.StoreHits() != hits+1 {
			err = errors.New("session did not serve the stored labeling")
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("ladder cell %d (%s): %w", i, c.scheme, err))
		}
	}
	return lad, errs, nil
}

// compute runs the miss path of cell c: build, freeze and fingerprint the
// graph, label it, marshal and store the labeling, label it through a
// Session (a miss, then a hit), and run it clean, jammed and under churn.
func (r *ladderCell) compute(ctx context.Context, tr *tracer, c cell, st *store.Store, sess *radiobcast.Session, key *store.Key) (*radiobcast.Network, error) {
	var (
		net  *radiobcast.Network
		l    *radiobcast.Labeling
		blob []byte
		out  *radiobcast.Outcome
		err  error
	)
	if r.build, err = tr.time("graph.build", func() (err error) {
		net, err = buildNetwork(c.graph)
		return err
	}); err != nil {
		return nil, err
	}
	g := net.Graph
	r.freeze, _ = tr.time("graph.freeze", func() error { g.Freeze(); return nil })
	r.fingerprint, _ = tr.time("graph.fingerprint", func() error { g.Fingerprint(); return nil })
	net.At(c.source)

	steps := []struct {
		name string
		d    *time.Duration
		f    func() error
	}{
		{"label.build", &r.label, func() (err error) { l, err = radiobcast.LabelNetworkCtx(ctx, net, c.scheme); return err }},
		{"codec.marshal", &r.marshal, func() (err error) { blob, err = l.MarshalBinary(); return err }},
		{"store.put", &r.put, func() error {
			*key = store.Key{Fingerprint: g.Fingerprint(), N: g.N(), M: g.M(), Scheme: c.scheme, Source: c.source}
			return st.Put(*key, blob)
		}},
		{"session.label_miss", &r.sessMiss, func() error { _, err := sess.Label(ctx, net, c.scheme); return err }},
		{"session.label_hit", &r.sessHit, func() error { _, err := sess.Label(ctx, net, c.scheme); return err }},
		{"engine.run_clean", &r.runClean, func() (err error) { out, err = sess.RunLabeled(ctx, l); return err }},
		{"verify", &r.verify, func() error { return radiobcast.Verify(out) }},
		{"engine.run_rate", &r.runRate, func() error {
			_, err := sess.RunLabeled(ctx, l, radiobcast.WithFaultSpec(radiobcast.FaultSpec{
				Model: radiobcast.FaultModelRate, Rate: 0.05, Seed: 1,
			}))
			return err
		}},
		{"engine.run_churn", &r.runChurn, func() error {
			_, err := sess.RunLabeled(ctx, l, radiobcast.WithFaultSpec(radiobcast.FaultSpec{
				Model:  radiobcast.FaultModelChurn,
				Events: []radiobcast.ChurnEvent{{Round: 3, U: c.source, V: g.Neighbors(c.source)[0]}},
			}))
			return err
		}},
	}
	for _, s := range steps {
		if *s.d, err = tr.time(s.name, s.f); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	r.bytes = len(blob)
	r.rounds = out.Result.Rounds
	return net, nil
}

// readBack runs the store-hit path by hand: get, unmarshal, then freeze
// and fingerprint the decoded graph, which must match the key.
func (r *ladderCell) readBack(tr *tracer, st *store.Store, key store.Key) error {
	var data []byte
	var err error
	if r.get, err = tr.time("store.get", func() error {
		var ok bool
		if data, ok = st.Get(key); !ok {
			return errors.New("stored blob missing")
		}
		return nil
	}); err != nil {
		return err
	}
	var l radiobcast.Labeling
	if r.unmarshal, err = tr.time("codec.unmarshal", func() error { return l.UnmarshalBinary(data) }); err != nil {
		return err
	}
	r.hitFreeze, _ = tr.time("graph.freeze", func() error { l.Graph.Freeze(); return nil })
	r.hitFprint, _ = tr.time("graph.fingerprint", func() error { l.Graph.Fingerprint(); return nil })
	if l.Graph.Fingerprint() != key.Fingerprint {
		return errors.New("decoded graph has another fingerprint")
	}
	return nil
}

// mean returns the mean of f over the cells that completed, in
// milliseconds, optionally restricted to one scheme.
func (lad ladder) mean(scheme string, f func(*ladderCell) time.Duration) float64 {
	var sum time.Duration
	n := 0
	for i := range lad {
		if c := &lad[i]; c.ok && (scheme == "" || c.scheme == scheme) {
			sum += f(c)
			n++
		}
	}
	return ratio(float64(sum)/1e6, float64(n))
}

// hitVsCompute is the store-hit path over the labeling compute, summed
// over scheme's cells.
func (lad ladder) hitVsCompute(scheme string) float64 {
	return ratio(lad.mean(scheme, (*ladderCell).hit), lad.mean(scheme, func(c *ladderCell) time.Duration { return c.label }))
}

func (lad ladder) countMean(f func(*ladderCell) int) float64 {
	var sum, n float64
	for i := range lad {
		if lad[i].ok {
			sum += float64(f(&lad[i]))
			n++
		}
	}
	return ratio(sum, n)
}

func (lad ladder) metrics() map[string]metric {
	ms := func(f func(*ladderCell) time.Duration) metric { return metric{lad.mean("", f), "ms"} }
	m := map[string]metric{
		"graph.build_ms":             ms(func(c *ladderCell) time.Duration { return c.build }),
		"graph.freeze_ms":            ms(func(c *ladderCell) time.Duration { return c.freeze }),
		"graph.fingerprint_ms":       ms(func(c *ladderCell) time.Duration { return c.fingerprint }),
		"codec.marshal_ms":           ms(func(c *ladderCell) time.Duration { return c.marshal }),
		"codec.unmarshal_ms":         ms(func(c *ladderCell) time.Duration { return c.unmarshal }),
		"codec.bytes_per_op":         {lad.countMean(func(c *ladderCell) int { return c.bytes }), "bytes"},
		"store.put_ms":               ms(func(c *ladderCell) time.Duration { return c.put }),
		"store.get_ms":               ms(func(c *ladderCell) time.Duration { return c.get }),
		"session.label_hit_us":       {1000 * lad.mean("", func(c *ladderCell) time.Duration { return c.sessHit }), "us"},
		"session.label_miss_ms":      ms(func(c *ladderCell) time.Duration { return c.sessMiss }),
		"session.label_store_hit_ms": ms(func(c *ladderCell) time.Duration { return c.sessStored }),
		"engine.run_clean_ms":        ms(func(c *ladderCell) time.Duration { return c.runClean }),
		"engine.run_rate_ms":         ms(func(c *ladderCell) time.Duration { return c.runRate }),
		"engine.run_churn_ms":        ms(func(c *ladderCell) time.Duration { return c.runChurn }),
		"engine.rounds_per_op":       {lad.countMean(func(c *ladderCell) int { return c.rounds }), "count"},
		"verify.ms":                  ms(func(c *ladderCell) time.Duration { return c.verify }),
	}
	for _, scheme := range []string{"b", "back"} {
		m["label.build_ms."+scheme] = metric{lad.mean(scheme, func(c *ladderCell) time.Duration { return c.label }), "ms"}
		m["store.hit_vs_compute."+scheme] = metric{lad.hitVsCompute(scheme), "ratio"}
	}
	return m
}

// print writes the store-versus-compute table, one row per scheme.
func (lad ladder) print(out io.Writer) {
	var schemes []string
	for _, c := range lad {
		if !slices.Contains(schemes, c.scheme) {
			schemes = append(schemes, c.scheme)
		}
	}
	fmt.Fprintf(out, "layer ladder over %d cells (ms per call, mean over the scheme's cells):\n", len(lad))
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "scheme\tlabel.build\tstore.get\tcodec.unmarshal\tfreeze+fingerprint\thit/compute\tsession miss\tsession store hit\t")
	for _, s := range schemes {
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.3f\t%.4f\t%.4f\t\n", s,
			lad.mean(s, func(c *ladderCell) time.Duration { return c.label }),
			lad.mean(s, func(c *ladderCell) time.Duration { return c.get }),
			lad.mean(s, func(c *ladderCell) time.Duration { return c.unmarshal }),
			lad.mean(s, func(c *ladderCell) time.Duration { return c.hitFreeze + c.hitFprint }),
			lad.hitVsCompute(s),
			lad.mean(s, func(c *ladderCell) time.Duration { return c.sessMiss }),
			lad.mean(s, func(c *ladderCell) time.Duration { return c.sessStored }))
	}
	tw.Flush()
}

// probeReps is how many timed repetitions each probe takes the median of.
const probeReps = 3

// probeLarge runs one labeled b broadcast on gnp-sparse with 131072
// nodes on the default engine and on the node-partitioned one with two
// workers. No workload has a graph that large; the numbers decide whether
// node-partitioned parallelism earns its keep.
func probeLarge(ctx context.Context, tr *tracer, layers map[string]metric) ([]error, error) {
	tr.req = "probe/large"
	var net *radiobcast.Network
	var l *radiobcast.Labeling
	var err error
	if _, err = tr.time("graph.build", func() (err error) { net, err = radiobcast.Family("gnp-sparse", 1<<17); return err }); err != nil {
		return nil, err
	}
	if _, err = tr.time("label.build", func() (err error) { l, err = radiobcast.LabelNetworkCtx(ctx, net, "b"); return err }); err != nil {
		return nil, err
	}
	modes := []struct {
		span string
		sim  *radiobcast.Sim
		opts []radiobcast.Option
		ms   []float64
	}{
		{span: "engine.large_run", sim: radiobcast.NewSim()},
		{span: "engine.large_run_workers2", sim: radiobcast.NewSim(), opts: []radiobcast.Option{radiobcast.WithWorkers(2)}},
	}
	var errs []error
	for rep := 0; rep <= probeReps; rep++ { // repetition 0 sizes the engines' buffers
		for i := range modes {
			m := &modes[i]
			var out *radiobcast.Outcome
			d, err := tr.time(m.span, func() (err error) {
				out, err = radiobcast.RunLabeledCtx(ctx, l, append([]radiobcast.Option{radiobcast.WithSim(m.sim)}, m.opts...)...)
				return err
			})
			if err == nil && rep == 0 {
				err = radiobcast.Verify(out)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", m.span, err))
			}
			if rep > 0 {
				m.ms = append(m.ms, float64(d)/1e6)
			}
		}
	}
	seq, par := median(modes[0].ms), median(modes[1].ms)
	layers["engine.large_run_ms"] = metric{seq, "ms"}
	layers["engine.parallel_speedup"] = metric{ratio(seq, par), "ratio"}
	return errs, nil
}

// probeSweep times one request of the sweep workload three ways, with the
// daemon's two sweep workers and every labeling already cached: building
// its graphs alone (Session.Sweep's first phase), the whole Session.Sweep,
// and the same cells run one by one, unbatched, on the same two workers.
func probeSweep(ctx context.Context, tr *tracer, req client.SweepRequest, layers map[string]metric) ([]error, error) {
	tr.req = "probe/sweep"
	const workers = 2
	spec := sweepSpec(req, workers)
	sess := radiobcast.NewSession()
	defer sess.Close(ctx)
	sweep := func() error {
		cells := 0
		for res, err := range sess.Sweep(ctx, spec) {
			if err != nil {
				return err
			}
			if res.Err != nil {
				return res.Err
			}
			cells++
		}
		if cells != sweepCells {
			return fmt.Errorf("sweep yielded %d cells, want %d", cells, sweepCells)
		}
		return nil
	}
	if err := sweep(); err != nil { // labels the grid's cells
		return []error{err}, nil
	}
	var graphsMs, sessionMs, unbatchedMs []float64
	var errs []error
	for rep := 0; rep < probeReps; rep++ {
		for _, step := range []struct {
			span string
			ms   *[]float64
			f    func() error
		}{
			{"sweep.graphs", &graphsMs, func() error { _, err := sweepGraphs(spec); return err }},
			{"sweep.session", &sessionMs, sweep},
			{"engine.unbatched", &unbatchedMs, func() error { return runUnbatched(ctx, sess, spec, workers) }},
		} {
			d, err := tr.time(step.span, step.f)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", step.span, err))
			}
			*step.ms = append(*step.ms, float64(d)/1e6)
		}
	}
	layers["sweep.graphs_ms"] = metric{median(graphsMs), "ms"}
	layers["sweep.session_ms"] = metric{median(sessionMs), "ms"}
	layers["engine.unbatched_ms"] = metric{median(unbatchedMs), "ms"}
	return errs, nil
}

// sweepGraphs builds, freezes and fingerprints one graph per (family,
// size), as Session.Sweep does first.
func sweepGraphs(spec radiobcast.SweepSpec) ([]*radiobcast.Network, error) {
	var nets []*radiobcast.Network
	for _, fam := range spec.Families {
		for _, size := range spec.Sizes {
			net, err := radiobcast.Family(fam, size)
			if err != nil {
				return nil, err
			}
			net.Graph.Freeze()
			net.Graph.Fingerprint()
			nets = append(nets, net)
		}
	}
	return nets, nil
}

// runUnbatched runs every cell of spec as its own RunLabeled on workers
// goroutines, with the options Session.Sweep gives the cell, and verifies
// the clean ones: the sweep without its lockstep batching.
func runUnbatched(ctx context.Context, sess *radiobcast.Session, spec radiobcast.SweepSpec, workers int) error {
	nets, err := sweepGraphs(spec)
	if err != nil {
		return err
	}
	type job struct {
		l    *radiobcast.Labeling
		opts []radiobcast.Option
	}
	var jobs []job
	for _, net := range nets {
		n := net.Graph.N()
		for _, scheme := range spec.Schemes {
			for _, src := range spec.Sources {
				if src < 0 {
					src += n
				}
				l, err := sess.Label(ctx, net.At(src), scheme)
				if err != nil {
					return err
				}
				for rep := 0; rep < spec.Repeats; rep++ {
					seed := spec.Seed + int64(rep)
					for _, rate := range spec.FaultRates {
						var opts []radiobcast.Option
						if rate > 0 {
							opts = append(opts, radiobcast.FaultRate(rate, seed))
						}
						jobs = append(jobs, job{l, opts})
					}
					for _, fs := range spec.Faults {
						fs.Seed = seed
						jobs = append(jobs, job{l, []radiobcast.Option{radiobcast.WithFaultSpec(fs)}})
					}
				}
			}
		}
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				j := jobs[i]
				out, err := sess.RunLabeled(ctx, j.l, j.opts...)
				if err == nil && len(j.opts) == 0 {
					err = radiobcast.Verify(out)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
