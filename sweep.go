package radiobcast

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"radiobcast/internal/sweep"
)

// SweepSpec describes a batched grid of broadcast runs: the cross product
// families × sizes × schemes × sources × fault rates × repeats, executed
// by one worker pool. Graphs are built and frozen once per (family, size)
// and labelings once per (family, size, scheme, source); all cells that
// differ only in fault rate or repeat share them, which is the paper's
// label-once/run-many regime run as a single job. Every cell's run
// borrows a reusable Sim from the engine's pool, so the steady state of a
// large sweep allocates per cell only the protocols and the Outcome.
type SweepSpec struct {
	// Families names the graph families to sweep (see FamilyNames).
	Families []string
	// Sizes are the requested graph sizes (generators may round; the
	// actual size is reported per cell).
	Sizes []int
	// Schemes names the registered schemes to run (see SchemeNames).
	Schemes []string
	// Sources are the broadcast sources. Values are node ids; a negative
	// value counts from the end (−1 = highest-numbered node). Values are
	// clamped into the actual node range. Default: {0}.
	Sources []int
	// FaultRates are the per-transmission jam probabilities to sweep,
	// applied through the deterministic FaultRate model. Rate 0 is the
	// fault-free channel; only fault-free cells are Verify-checked.
	// Default: {0}.
	FaultRates []float64
	// Faults are additional fault-model points of the fault axis, one
	// sweep column per spec (jamming budgets, crash rates, churn
	// schedules, duty cycles, compositions). They extend FaultRates: the
	// axis is all FaultRates entries followed by all Faults entries. Specs
	// with Seed 0 inherit the sweep's Seed; every repeat adds its index,
	// so repeats see distinct fault patterns. Cells on this axis are
	// never Verify-checked — degradation is their data.
	Faults []FaultSpec
	// Repeats runs every (family, size, scheme, source, rate) cell this
	// many times with distinct fault seeds (repeat i uses Seed+i), so
	// faulty-channel results can be averaged. Default: 1.
	Repeats int
	// Mu is the broadcast message (default "µ").
	Mu string
	// MaxRounds overrides every scheme's default round bound when > 0.
	MaxRounds int
	// Workers sizes the worker pool (≤ 0 → GOMAXPROCS). Each cell runs
	// the sequential engine; parallelism comes from running cells
	// concurrently, which scales better than parallelising single runs.
	Workers int
	// Seed is the base seed of the fault model (default 1).
	Seed int64
	// OnCell, when non-nil, streams every finished cell as it completes
	// (in completion order, which under a concurrent pool is not grid
	// order; the slice returned by RunSweep is always in grid order). It
	// is honoured by RunSweep/RunSweepCtx and never called concurrently.
	// Session.Sweep ignores it: there the iterator IS the stream.
	OnCell func(CellResult)
}

// SweepCell identifies one point of the sweep grid.
type SweepCell struct {
	Family    string
	Size      int // requested size (see CellResult.N for the actual one)
	Scheme    string
	Source    int // resolved source node id
	FaultRate float64
	// Fault labels the cell's point on the Faults axis (the spec's model
	// name, "#index"-suffixed when ambiguous); empty for the FaultRates
	// axis, where FaultRate carries the point.
	Fault  string
	Repeat int // 0-based repeat index

	// fspec is the Faults-axis spec behind Fault (nil on the rate axis).
	fspec *FaultSpec
}

// Faulted reports whether the cell runs under a non-clean channel (either
// fault axis); such cells are never Verify-checked.
func (c SweepCell) Faulted() bool { return c.FaultRate > 0 || c.fspec != nil || c.Fault != "" }

// CellResult is the outcome of one sweep cell.
type CellResult struct {
	// Cell is the grid point this result belongs to.
	Cell SweepCell
	// Index is the cell's position in grid order (families, then sizes,
	// schemes, sources, the fault axis — FaultRates entries before Faults
	// entries — and repeats; the nesting order of the spec fields). Streaming consumers receive cells in completion
	// order; Index lets them re-establish grid order, as RunSweep does.
	Index int
	// N is the actual node count of the generated graph.
	N int
	// Outcome is the unified run outcome (nil when Err is a setup error).
	Outcome *Outcome
	// Verified reports that the cell ran fault-free and the scheme's
	// guarantees held. Faulty cells are never verified: broken broadcasts
	// are their data, reported through Outcome.AllInformed.
	Verified bool
	// Err is a setup error (labeling failed), a Verify failure on a
	// fault-free cell, or the context's error when the run was cancelled
	// mid-cell (then Outcome holds the partial prefix). It is nil for a
	// faulty cell that merely failed to inform everyone.
	Err error
}

// String renders the cell coordinates compactly.
func (c SweepCell) String() string {
	s := fmt.Sprintf("%s/n=%d/%s/src=%d", c.Family, c.Size, c.Scheme, c.Source)
	if c.FaultRate > 0 {
		s += fmt.Sprintf("/drop=%g", c.FaultRate)
	}
	if c.Fault != "" {
		s += "/fault=" + c.Fault
	}
	if c.Repeat > 0 {
		s += fmt.Sprintf("/rep=%d", c.Repeat)
	}
	return s
}

// netKey identifies a shared frozen graph; labKey a shared labeling.
type netKey struct {
	family string
	size   int
}

type labKey struct {
	netKey
	scheme string
	source int
}

type labEntry struct {
	l   *Labeling
	err error
}

// normalize applies the spec defaults in place and validates the grid.
func (spec *SweepSpec) normalize() error {
	if spec.Repeats <= 0 {
		spec.Repeats = 1
	}
	if len(spec.Sources) == 0 {
		spec.Sources = []int{0}
	}
	if len(spec.FaultRates) == 0 {
		spec.FaultRates = []float64{0}
	}
	if spec.Mu == "" {
		spec.Mu = "µ"
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if len(spec.Families) == 0 || len(spec.Sizes) == 0 || len(spec.Schemes) == 0 {
		return fmt.Errorf("radiobcast: sweep needs at least one family, size and scheme")
	}
	for _, s := range spec.Schemes {
		if _, ok := Lookup(s); !ok {
			return fmt.Errorf("radiobcast: sweep: %w", unknownScheme(s))
		}
	}
	for i := range spec.Faults {
		if err := spec.Faults[i].validate(); err != nil {
			return fmt.Errorf("radiobcast: sweep: faults[%d]: %w", i, err)
		}
	}
	return nil
}

// faultLabels names the Faults-axis points: the spec's model name, with a
// "#index" suffix when two specs would otherwise collide.
func faultLabels(specs []FaultSpec) []string {
	labels := make([]string, len(specs))
	seen := make(map[string]int, len(specs))
	for i := range specs {
		labels[i] = specs[i].name()
		seen[labels[i]]++
	}
	for i, l := range labels {
		if seen[l] > 1 {
			labels[i] = fmt.Sprintf("%s#%d", l, i)
		}
	}
	return labels
}

// Sweep executes the spec's grid on a worker pool and streams the results
// as a range-over-func iterator, in completion order:
//
//	for cell, err := range sess.Sweep(ctx, spec) {
//		if err != nil { ... }          // bad spec, or ctx cancelled
//		serve(cell)
//	}
//
// Consumers see each finished cell the moment it completes — no
// end-of-grid barrier — and may break out early, which stops the pool
// without leaking goroutines. Cancelling ctx stops the grid within one
// cell per worker (and each in-flight run within one engine round); every
// result finished before the cut-off is still yielded, and the iterator
// then yields ctx.Err() last. Per-cell failures travel inside CellResult
// (one impossible labeling must not abort a million-cell job); the error
// half of the pair is reserved for whole-sweep failures.
//
// Labelings are served through the session cache, so repeated sweeps over
// the same topologies skip straight to the runs; each cell's run borrows
// a pooled engine.
func (s *Session) Sweep(ctx context.Context, spec SweepSpec) iter.Seq2[CellResult, error] {
	return func(yield func(CellResult, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		// The whole grid is one session operation: Session.Close started
		// mid-sweep lets the sweep drain, while a sweep started after
		// Close fails up front.
		if err := s.begin(); err != nil {
			yield(CellResult{}, err)
			return
		}
		defer s.end()
		if err := spec.normalize(); err != nil {
			yield(CellResult{}, err)
			return
		}

		// Phase 1: one graph per (family, size) from the session's graph
		// cache, which publishes them frozen and fingerprinted, read-only
		// for the concurrent phases.
		nets := make(map[netKey]*Network)
		for _, fam := range spec.Families {
			for _, size := range spec.Sizes {
				k := netKey{fam, size}
				if _, ok := nets[k]; ok {
					continue
				}
				net, err := s.Family(fam, size)
				if err != nil {
					yield(CellResult{}, err)
					return
				}
				nets[k] = net
			}
		}
		if err := ctx.Err(); err != nil {
			yield(CellResult{}, err)
			return
		}

		// Phase 2: compute each distinct labeling once, in parallel across
		// keys, through the session cache. Cells differing only in fault
		// rate or repeat share the entry. The keys are derived from the
		// cell enumeration itself, so the grid order and source
		// resolution have exactly one source of truth.
		cells := enumerateCells(spec, nets)
		var labKeys []labKey
		seen := make(map[labKey]bool)
		for _, c := range cells {
			k := labKey{netKey{c.Family, c.Size}, c.Scheme, c.Source}
			if !seen[k] {
				seen[k] = true
				labKeys = append(labKeys, k)
			}
		}
		entries, err := sweep.MapIdxCtx(ctx, labKeys, spec.Workers, func(k labKey) labEntry {
			net := nets[k.netKey]
			l, err := s.Label(ctx, net, k.scheme, WithSource(k.source), WithMessage(spec.Mu))
			if err != nil {
				err = fmt.Errorf("label %s/n=%d/%s/src=%d: %w", k.family, k.size, k.scheme, k.source, err)
			}
			return labEntry{l, err}
		})
		if err != nil {
			yield(CellResult{}, err)
			return
		}
		labelings := make(map[labKey]labEntry, len(labKeys))
		for i, k := range labKeys {
			labelings[k] = entries[i]
		}

		// Phase 3: run every cell on the pool, streaming results in
		// completion order. An early break abandons the stream (workers
		// drop undeliverable results and exit — no leak), while plain
		// cancellation keeps draining, so every cell finished before the
		// cut-off is still yielded.
		inner, cancel := context.WithCancel(ctx)
		defer cancel()
		results, abandon := sweep.StreamIdx(inner, len(cells), spec.Workers, func(i int) CellResult {
			return runCell(inner, spec, cells[i], i, nets, labelings)
		})
		defer abandon()
		for res := range results {
			if !yield(res, nil) {
				return
			}
		}
		if err := ctx.Err(); err != nil {
			yield(CellResult{}, err)
		}
	}
}

// RunSweep executes the sweep and returns one CellResult per grid point,
// in grid order. It returns a non-nil error only for an unusable spec: an
// empty grid, an unknown family or scheme. Per-cell failures are reported
// in the cells, so one impossible labeling does not abort a large batch.
func RunSweep(spec SweepSpec) ([]CellResult, error) {
	return RunSweepCtx(context.Background(), spec)
}

// RunSweepCtx is RunSweep with cancellation: it collects the stream of a
// one-off Session's Sweep and, when ctx is cancelled mid-grid, returns
// every cell finished before the cut-off (in grid order) together with
// ctx.Err(). spec.OnCell, when set, observes cells in completion order as
// they finish, exactly as before.
func RunSweepCtx(ctx context.Context, spec SweepSpec) ([]CellResult, error) {
	var results []CellResult
	var sweepErr error
	sess := NewSession()
	for res, err := range sess.Sweep(ctx, spec) {
		if err != nil {
			sweepErr = err
			break
		}
		if spec.OnCell != nil {
			spec.OnCell(res)
		}
		results = append(results, res)
	}
	if sweepErr != nil && len(results) == 0 {
		return nil, sweepErr
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	return results, sweepErr
}

// enumerateCells lists the grid in spec nesting order with resolved
// sources.
func enumerateCells(spec SweepSpec, nets map[netKey]*Network) []SweepCell {
	labels := faultLabels(spec.Faults)
	var cells []SweepCell
	for _, fam := range spec.Families {
		for _, size := range spec.Sizes {
			n := nets[netKey{fam, size}].Graph.N()
			for _, scheme := range spec.Schemes {
				for _, src := range spec.Sources {
					addReps := func(c SweepCell) {
						c.Family, c.Size, c.Scheme = fam, size, scheme
						c.Source = resolveSource(src, n)
						for rep := 0; rep < spec.Repeats; rep++ {
							c.Repeat = rep
							cells = append(cells, c)
						}
					}
					for _, rate := range spec.FaultRates {
						addReps(SweepCell{FaultRate: rate})
					}
					for i := range spec.Faults {
						addReps(SweepCell{Fault: labels[i], fspec: &spec.Faults[i]})
					}
				}
			}
		}
	}
	return cells
}

// resolveSource maps a requested source onto the actual node range:
// negative values count from the end, and out-of-range values clamp.
func resolveSource(src, n int) int {
	if src < 0 {
		src = n + src
	}
	if src < 0 {
		src = 0
	}
	if src >= n {
		src = n - 1
	}
	return src
}

// cellOptions builds the run options of one sweep cell.
func cellOptions(spec SweepSpec, c SweepCell) []Option {
	opts := []Option{
		WithMessage(spec.Mu),
		WithSource(c.Source),
	}
	if spec.MaxRounds > 0 {
		opts = append(opts, WithMaxRounds(spec.MaxRounds))
	}
	switch {
	case c.fspec != nil:
		// Copy the shared spec so each cell materializes its own stateful
		// model, with the repeat index folded into the seed.
		fs := *c.fspec
		if fs.Seed == 0 {
			fs.Seed = spec.Seed
		}
		fs.Seed += int64(c.Repeat)
		opts = append(opts, WithFaultSpec(fs))
	case c.FaultRate > 0:
		opts = append(opts, FaultRate(c.FaultRate, spec.Seed+int64(c.Repeat)))
	}
	return opts
}

func runCell(ctx context.Context, spec SweepSpec, c SweepCell, idx int, nets map[netKey]*Network, labelings map[labKey]labEntry) CellResult {
	net := nets[netKey{c.Family, c.Size}]
	res := CellResult{Cell: c, Index: idx, N: net.Graph.N()}
	entry := labelings[labKey{netKey{c.Family, c.Size}, c.Scheme, c.Source}]
	if entry.err != nil {
		res.Err = entry.err
		return res
	}
	out, err := RunLabeledCtx(ctx, entry.l, cellOptions(spec, c)...)
	if err != nil {
		res.Outcome = out // partial on cancellation, nil otherwise
		res.Err = fmt.Errorf("run %s: %w", c, err)
		return res
	}
	res.Outcome = out
	if !c.Faulted() {
		if err := Verify(out); err != nil {
			res.Err = fmt.Errorf("verify %s: %w", c, err)
		} else {
			res.Verified = true
		}
	}
	return res
}
