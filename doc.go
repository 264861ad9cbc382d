// Package radiobcast is a from-scratch Go reproduction of
//
//	Faith Ellen, Barun Gorain, Avery Miller, Andrzej Pelc.
//	"Constant-Length Labeling Schemes for Deterministic Radio Broadcast."
//	SPAA 2019 (arXiv:1710.03178).
//
// The root package is the public facade (see README.md for a full guide
// and DESIGN.md for the system inventory): every algorithm in the
// repository — the paper's λ/λack/λarb schemes, the verified one-bit
// schemes of §5, and the four comparison baselines — implements the one
// Scheme interface (label a graph, plan a run, verify), registers itself
// by name, and runs its plan on the facade's one path. A full run is one
// call:
//
//	net, _ := radiobcast.Family("grid", 64)
//	out, _ := radiobcast.RunCtx(ctx, net, "barb")
//	err := radiobcast.Verify(out)
//
// Serving workloads go through a Session, which caches labelings by
// graph structure; its runs borrow pooled simulation engines, so the
// steady state of the paper's label-once/run-many regime neither
// relabels nor reallocates:
//
//	sess := radiobcast.NewSession()
//	out, _ := sess.Run(ctx, net, "b", radiobcast.WithMessage("µ"))
//	for cell, err := range sess.Sweep(ctx, spec) { ... }
//
// Every run is cancellable: the engine checks ctx between rounds and a
// cancelled run returns its partial Outcome together with ctx.Err().
// Setup failures are typed — match errors.Is against ErrUnknownScheme,
// ErrNodeOutOfRange, ErrNilNetwork, ErrLabelingMismatch, and
// ErrNoLabeling when a searched scheme finds no labeling. Labelings are
// durable artifacts: MarshalBinary/UnmarshalBinary (and WriteLabeling/
// ReadLabeling) give them a versioned wire format that reruns
// bit-identically in another process.
//
// Label once and broadcast many times with LabelNetwork + RunLabeled
// (ctx variants: LabelNetworkCtx, RunLabeledCtx; the context-free names
// are kept as context.Background() wrappers); tune runs with functional
// options (WithMaxRounds, WithTrace, WithSim, WithQuick, WithSource, …;
// WithWorkers is a deprecated no-op);
// enumerate algorithms with Schemes and plug in new ones with Register.
//
// Adversarial channels are declared as a FaultSpec — an i.i.d. jamming
// rate, a budgeted (optionally greedy) jammer, crash–recovery,
// duty-cycling, topology churn, or a composition — and injected with
// WithFaultSpec. A faulted run is graded, not failed: Outcome.Coverage,
// Outcome.Degraded and Outcome.RoundsToCoverage quantify partial
// delivery. Every model is deterministic in (spec, seed), so a faulted
// run is reproducible bit for bit.
//
// RunSweep executes a whole families × sizes × schemes × sources ×
// faults × repeats grid as one batched job on a worker pool that shares
// frozen graphs and labelings across cells; the fault axis is the
// FaultRates entries followed by the Faults specs, each spec's seed
// folded with the repeat index so the grid is reproducible. Every cell
// runs on its own engine borrowed from the engine's pool; the worker
// pool is the only parallelism.
//
// The machinery lives under internal/:
//
//   - internal/graph, internal/nodeset: the network substrate; a Graph
//     stores only its CSR form (Graph.Freeze), built from the added
//     edges on its first read and iterated by every hot path;
//   - internal/radio: the synchronous radio model of §1.1 — one reusable
//     engine, a bit-packed word-parallel core checked against the naive
//     reference engine of internal/radio/radiotest;
//   - internal/faults: the composable fault-model contract behind
//     FaultSpec (jam/crash/duty/churn, seeded and deterministic);
//   - internal/domset: minimal dominating subsets (§2.1 step 4);
//   - internal/core: the stage construction, the labeling schemes λ, λack,
//     λarb and the universal algorithms B, Back, Barb;
//   - internal/baseline: round-robin, colour-robin, centralized scheduling
//     and delayed flooding;
//   - internal/onebit: the verified one-bit schemes of §5;
//   - internal/anonymity: the four-cycle impossibility as executable checks;
//   - internal/experiments: the table/figure regeneration harness.
//
// The root-level bench_test.go exposes one benchmark per experiment; run
//
//	go test -bench=. -benchmem
//
// to exercise the full harness, or use cmd/experiments to regenerate
// EXPERIMENTS.md's tables.
package radiobcast
