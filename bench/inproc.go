package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"

	"radiobcast"
	"radiobcast/client"
	"radiobcast/internal/graph"
)

// backend is the part of the daemon's API the workloads call. Two types
// implement it: *client.Client, which crosses HTTP to the daemon under
// test, and *inproc, which replays the same calls in-process with spans.
type backend interface {
	Label(ctx context.Context, lr client.LabelRequest) (*radiobcast.Labeling, *client.LabelMeta, error)
	Run(ctx context.Context, rr client.RunRequest) (*client.RunResponse, error)
	RunLabeled(ctx context.Context, l *radiobcast.Labeling, p client.RunLabeledParams) (*client.RunResponse, error)
	Sweep(ctx context.Context, sr client.SweepRequest, onCell func(client.SweepCellResult) error) (int, error)
}

// inproc serves the daemon's endpoints in-process. Each method makes the
// public calls internal/httpd's handler makes, plus the typed client's
// encode and decode, and puts a span around each, so per-layer times come
// from outside the program. Where the handler makes one call that spans
// layers, inproc makes the equivalent pair: Session.Run becomes
// Session.Label then Session.RunLabeled, and the Freeze and Fingerprint
// that Session.Label would trigger are called first. An inproc is used by
// one goroutine at a time.
type inproc struct {
	sess         *radiobcast.Session
	tr           *tracer
	sweepWorkers int
}

// newInproc opens a Session configured by the radiobcastd flags in args,
// so the replay and the daemon under test share one configuration.
func newInproc(args []string, tr *tracer) (*inproc, error) {
	fs := flag.NewFlagSet("radiobcastd", flag.ContinueOnError)
	cache := fs.Int("cache", radiobcast.DefaultLabelingCacheSize, "")
	storeDir := fs.String("store", "", "")
	sweepWorkers := fs.Int("sweep-workers", 0, "")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	opts := []radiobcast.SessionOption{radiobcast.WithLabelingCache(*cache)}
	if *storeDir != "" {
		opts = append(opts, radiobcast.WithStore(*storeDir))
	}
	sess := radiobcast.NewSession(opts...)
	if err := sess.Err(); err != nil {
		return nil, err
	}
	return &inproc{sess: sess, tr: tr, sweepWorkers: *sweepWorkers}, nil
}

// openInproc opens the in-process mirror of the daemon w runs against,
// with its stores under dir. For a populator, a first Session fills the
// store and is closed, and the mirror reopens it, as the daemon under
// test is restarted against the store an earlier daemon filled.
func openInproc(ctx context.Context, w workload, dir string, tr *tracer) (*inproc, error) {
	args := w.daemonArgs(dir)
	p, err := newInproc(args, tr)
	if err != nil {
		return nil, err
	}
	pop, ok := w.(populator)
	if !ok {
		return p, nil
	}
	err = pop.populate(ctx, p)
	if cerr := p.sess.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("populating the in-process store: %w", err)
	}
	return newInproc(args, tr)
}

// buildNetwork realizes a graph spec the way the daemon's handler does:
// a family member, or an explicit edge list that must be connected.
func buildNetwork(spec client.GraphSpec) (*radiobcast.Network, error) {
	if spec.Family != "" {
		return radiobcast.Family(spec.Family, spec.N)
	}
	n := spec.Nodes
	for _, e := range spec.Edges {
		if e[0] < 0 || e[1] < 0 || e[0] == e[1] {
			return nil, fmt.Errorf("bad edge {%d,%d}", e[0], e[1])
		}
		n = max(n, e[0]+1, e[1]+1)
	}
	g := graph.New(n)
	for _, e := range spec.Edges {
		g.AddEdge(e[0], e[1])
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("graph is not connected (%d nodes, %d edges)", g.N(), g.M())
	}
	return radiobcast.NewNetwork(g), nil
}

// network builds, freezes and fingerprints the request's graph.
func (p *inproc) network(spec client.GraphSpec) (*radiobcast.Network, error) {
	var net *radiobcast.Network
	if _, err := p.tr.time("graph.build", func() (err error) {
		net, err = buildNetwork(spec)
		return err
	}); err != nil {
		return nil, err
	}
	p.tr.time("graph.freeze", func() error { net.Graph.Freeze(); return nil })
	p.tr.time("graph.fingerprint", func() error { net.Graph.Fingerprint(); return nil })
	return net, nil
}

// label serves a labeling through the Session and names its span by what
// the Session did: an LRU hit, a store hit or a computed miss.
func (p *inproc) label(ctx context.Context, net *radiobcast.Network, scheme string) (*radiobcast.Labeling, error) {
	hits, storeHits, misses := p.sess.CacheHits(), p.sess.StoreHits(), p.sess.CacheMisses()
	id := p.tr.begin("session.label")
	l, err := p.sess.Label(ctx, net, scheme)
	p.tr.end(id)
	switch {
	case p.sess.CacheHits() > hits:
		p.tr.rename(id, "session.label_hit")
	case p.sess.StoreHits() > storeHits:
		p.tr.rename(id, "session.label_store_hit")
	case p.sess.CacheMisses() > misses:
		p.tr.rename(id, "session.label_miss")
	}
	return l, err
}

// roundTrip is the JSON request path: the client encodes v, the handler
// decodes it strictly into dst.
func (p *inproc) roundTrip(v, dst any) error {
	var body []byte
	if _, err := p.tr.time("client.encode", func() (err error) {
		body, err = json.Marshal(v)
		return err
	}); err != nil {
		return err
	}
	_, err := p.tr.time("httpd.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(dst)
	})
	return err
}

// Label mirrors POST /v1/label with a binary response.
func (p *inproc) Label(ctx context.Context, lr client.LabelRequest) (*radiobcast.Labeling, *client.LabelMeta, error) {
	var req client.LabelRequest
	if err := p.roundTrip(lr, &req); err != nil {
		return nil, nil, err
	}
	net, err := p.network(req.Graph)
	if err != nil {
		return nil, nil, err
	}
	net.At(req.Source).Coordinated(req.Coordinator)
	l, err := p.label(ctx, net, req.Scheme)
	if err != nil {
		return nil, nil, err
	}
	var blob, metaJSON []byte
	if _, err := p.tr.time("codec.marshal", func() (err error) {
		blob, err = l.MarshalBinary()
		return err
	}); err != nil {
		return nil, nil, err
	}
	if _, err := p.tr.time("httpd.encode", func() (err error) {
		metaJSON, err = json.Marshal(client.LabelMeta{
			Scheme: l.Scheme, N: l.Graph.N(), M: l.Graph.M(), Source: l.Source,
			Bits: l.Bits(), Distinct: l.Distinct(), Bytes: len(blob),
		})
		return err
	}); err != nil {
		return nil, nil, err
	}

	var meta client.LabelMeta
	var out *radiobcast.Labeling
	id := p.tr.begin("client.decode")
	err = json.Unmarshal(metaJSON, &meta)
	if err == nil {
		_, err = p.tr.time("codec.unmarshal", func() (err error) {
			out, err = radiobcast.ReadLabeling(bytes.NewReader(blob))
			return err
		})
	}
	p.tr.end(id)
	return out, &meta, err
}

// Run mirrors POST /v1/run.
func (p *inproc) Run(ctx context.Context, rr client.RunRequest) (*client.RunResponse, error) {
	var req client.RunRequest
	if err := p.roundTrip(rr, &req); err != nil {
		return nil, err
	}
	net, err := p.network(req.Graph)
	if err != nil {
		return nil, err
	}
	net.At(req.Source).Coordinated(req.Coordinator)
	// The handler's fault and seed defaults.
	var opts []radiobcast.Option
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	engine := "engine.run_clean"
	switch {
	case req.Fault != nil:
		fs := *req.Fault
		if fs.Seed == 0 {
			fs.Seed = seed
		}
		opts = append(opts, radiobcast.WithFaultSpec(fs))
		engine = "engine.run_" + fs.Model
	case req.FaultRate > 0:
		opts = append(opts, radiobcast.FaultRate(req.FaultRate, seed))
		engine = "engine.run_rate"
	}
	l, err := p.label(ctx, net, req.Scheme)
	if err != nil {
		return nil, err
	}
	var out *radiobcast.Outcome
	if _, err := p.tr.time(engine, func() (err error) {
		out, err = p.sess.RunLabeled(ctx, l, opts...)
		return err
	}); err != nil {
		return nil, err
	}
	return p.respond(out, engine != "engine.run_clean")
}

// RunLabeled mirrors POST /v1/run-labeled: the client marshals the
// labeling, the handler decodes it and runs it.
func (p *inproc) RunLabeled(ctx context.Context, l *radiobcast.Labeling, params client.RunLabeledParams) (*client.RunResponse, error) {
	var blob []byte
	id := p.tr.begin("client.encode")
	_, err := p.tr.time("codec.marshal", func() (err error) {
		blob, err = l.MarshalBinary()
		return err
	})
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	var got *radiobcast.Labeling
	id = p.tr.begin("httpd.decode")
	_, err = p.tr.time("codec.unmarshal", func() (err error) {
		got, err = radiobcast.ReadLabeling(bytes.NewReader(blob))
		return err
	})
	p.tr.end(id)
	if err != nil {
		return nil, err
	}
	p.tr.time("graph.freeze", func() error { got.Graph.Freeze(); return nil })
	var opts []radiobcast.Option
	if params.Source != nil {
		opts = append(opts, radiobcast.WithSource(*params.Source))
	}
	if params.Mu != "" {
		opts = append(opts, radiobcast.WithMessage(params.Mu))
	}
	if params.MaxRounds > 0 {
		opts = append(opts, radiobcast.WithMaxRounds(params.MaxRounds))
	}
	var out *radiobcast.Outcome
	if _, err := p.tr.time("engine.run_clean", func() (err error) {
		out, err = p.sess.RunLabeled(ctx, got, opts...)
		return err
	}); err != nil {
		return nil, err
	}
	return p.respond(out, false)
}

// respond verifies a fault-free outcome, encodes the response the way the
// handler does, and decodes it the way the client does.
func (p *inproc) respond(out *radiobcast.Outcome, faulty bool) (*client.RunResponse, error) {
	resp := &client.RunResponse{
		Scheme: out.Scheme, N: out.Graph.N(), M: out.Graph.M(),
		Source: out.Source, Mu: out.Mu,
		AllInformed: out.AllInformed, CompletionRound: out.CompletionRound,
		Coverage: out.Coverage, Degraded: string(out.Degraded),
		AckRound: out.AckRound,
	}
	if out.Result != nil {
		resp.Rounds = out.Result.Rounds
		resp.TotalTransmissions = out.Result.TotalTransmissions
		resp.MaxMessageBits = out.Result.MaxMessageBits
		resp.Interrupted = out.Result.Interrupted
	}
	if out.Labeling != nil {
		resp.LabelBits = out.Labeling.Bits()
	}
	if !faulty && !resp.Interrupted {
		if _, err := p.tr.time("verify", func() error { return radiobcast.Verify(out) }); err != nil {
			resp.VerifyError = err.Error()
		} else {
			resp.Verified = true
		}
	}
	var body []byte
	if _, err := p.tr.time("httpd.encode", func() (err error) {
		body, err = json.Marshal(resp)
		return err
	}); err != nil {
		return nil, err
	}
	var got client.RunResponse
	_, err := p.tr.time("client.decode", func() error { return json.Unmarshal(body, &got) })
	return &got, err
}

// Sweep mirrors POST /v1/sweep: the handler encodes each cell as an NDJSON
// line while Session.Sweep streams, then the client parses the stream.
func (p *inproc) Sweep(ctx context.Context, sr client.SweepRequest, onCell func(client.SweepCellResult) error) (int, error) {
	var req client.SweepRequest
	if err := p.roundTrip(sr, &req); err != nil {
		return 0, err
	}
	spec := sweepSpec(req, p.sweepWorkers)
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	id := p.tr.begin("sweep.session")
	cells := 0
	var sweepErr error
	for res, err := range p.sess.Sweep(ctx, spec) {
		if err != nil {
			sweepErr = err
			break
		}
		if _, sweepErr = p.tr.time("httpd.encode", func() error {
			return enc.Encode(client.SweepLine{Cell: cellResponse(res)})
		}); sweepErr != nil {
			break
		}
		cells++
	}
	p.tr.end(id)
	if sweepErr != nil {
		return 0, sweepErr
	}
	if err := enc.Encode(client.SweepLine{Done: &client.SweepSummary{Cells: cells}}); err != nil {
		return 0, err
	}

	id = p.tr.begin("client.decode")
	defer p.tr.end(id)
	got := 0
	sc := bufio.NewScanner(&stream)
	for sc.Scan() {
		var line client.SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return got, fmt.Errorf("bad sweep line: %w", err)
		}
		switch {
		case line.Cell != nil:
			got++
			if err := onCell(*line.Cell); err != nil {
				return got, err
			}
		case line.Done != nil:
			return got, nil
		}
	}
	return got, fmt.Errorf("sweep stream truncated after %d cells", got)
}

// sweepSpec is the handler's translation of a sweep request, with the
// daemon's worker count.
func sweepSpec(req client.SweepRequest, workers int) radiobcast.SweepSpec {
	return radiobcast.SweepSpec{
		Families: req.Families, Sizes: req.Sizes, Schemes: req.Schemes,
		Sources: req.Sources, FaultRates: req.FaultRates, Faults: req.Faults,
		Repeats: req.Repeats, Mu: req.Mu, MaxRounds: req.MaxRounds, Seed: req.Seed,
		Workers: workers,
	}
}

// cellResponse is the handler's NDJSON cell encoding.
func cellResponse(res radiobcast.CellResult) *client.SweepCellResult {
	c := &client.SweepCellResult{
		Family: res.Cell.Family, Size: res.Cell.Size, Scheme: res.Cell.Scheme,
		Source: res.Cell.Source, FaultRate: res.Cell.FaultRate, Fault: res.Cell.Fault,
		Repeat: res.Cell.Repeat, Index: res.Index, N: res.N, Verified: res.Verified,
	}
	if res.Outcome != nil {
		c.AllInformed = res.Outcome.AllInformed
		c.CompletionRound = res.Outcome.CompletionRound
		c.Coverage = res.Outcome.Coverage
		c.Degraded = string(res.Outcome.Degraded)
		if res.Outcome.Result != nil {
			c.Rounds = res.Outcome.Result.Rounds
		}
	}
	if res.Err != nil {
		c.Error = res.Err.Error()
	}
	return c
}
