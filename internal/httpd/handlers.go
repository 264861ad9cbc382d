package httpd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"radiobcast"
	"radiobcast/client"
	"radiobcast/internal/graph"
)

// httpErr carries a pre-mapped (status, code, message) triple through the
// handler helpers.
type httpErr struct {
	status int
	code   string
	msg    string
}

func (e *httpErr) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpErr {
	return &httpErr{http.StatusBadRequest, "bad_request", fmt.Sprintf(format, args...)}
}

func limitExceeded(format string, args ...any) *httpErr {
	return &httpErr{http.StatusBadRequest, "limit_exceeded", fmt.Sprintf(format, args...)}
}

// writeError emits the canonical JSON error body and returns the status
// for the metrics layer.
func writeError(w http.ResponseWriter, status int, code, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(client.ErrorBody{Error: client.ErrorDetail{Code: code, Message: msg}})
	return status
}

func (e *httpErr) write(w http.ResponseWriter) int {
	return writeError(w, e.status, e.code, e.msg)
}

// writeFacadeError maps a facade error (typed sentinel, cancellation, …)
// to its stable code and writes it.
func writeFacadeError(w http.ResponseWriter, err error) int {
	status, code := mapError(err)
	msg := err.Error()
	if code == "internal" {
		msg = "internal error" // never leak unclassified error text
	}
	return writeError(w, status, code, msg)
}

func writeJSON(w http.ResponseWriter, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
	return http.StatusOK
}

// decodeJSON strictly decodes the request body into v; on failure it has
// already written the error and returns the status (0 on success).
// Unknown fields are rejected — a typoed "schema" must not silently
// become a default run.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) int {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return writeError(w, http.StatusRequestEntityTooLarge, "limit_exceeded",
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		}
		return writeError(w, http.StatusBadRequest, "bad_request", "decoding request: "+err.Error())
	}
	return 0
}

// buildNetwork realizes a GraphSpec under the server's size limits. A
// family member comes from the Session's graph cache, so a recurring
// spec shares one frozen graph instead of being rebuilt per request.
func (s *Server) buildNetwork(spec client.GraphSpec) (*radiobcast.Network, *httpErr) {
	switch {
	case spec.Family != "" && len(spec.Edges) > 0:
		return nil, badRequest("graph spec has both a family and an edge list; send one")
	case spec.Family != "":
		if spec.N > s.cfg.MaxGraphN {
			return nil, limitExceeded("graph size %d exceeds the limit of %d nodes", spec.N, s.cfg.MaxGraphN)
		}
		net, err := s.sess.Family(spec.Family, spec.N)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		if net.Graph.N() > s.cfg.MaxGraphN {
			return nil, limitExceeded("family %q rounded n to %d, exceeding the limit of %d nodes",
				spec.Family, net.Graph.N(), s.cfg.MaxGraphN)
		}
		return net, nil
	case len(spec.Edges) > 0:
		n := spec.Nodes
		for _, e := range spec.Edges {
			if e[0] < 0 || e[1] < 0 {
				return nil, badRequest("edge {%d,%d} has a negative endpoint", e[0], e[1])
			}
			if e[0] == e[1] {
				return nil, badRequest("self-loop {%d,%d} is not a radio link", e[0], e[1])
			}
			n = max(n, e[0]+1, e[1]+1)
		}
		if n > s.cfg.MaxGraphN {
			return nil, limitExceeded("graph size %d exceeds the limit of %d nodes", n, s.cfg.MaxGraphN)
		}
		g := graph.New(n)
		for _, e := range spec.Edges {
			g.AddEdge(e[0], e[1])
		}
		if !g.IsConnected() {
			return nil, badRequest("graph is not connected (%d nodes, %d edges)", g.N(), g.M())
		}
		return radiobcast.NewNetwork(g), nil
	default:
		return nil, badRequest("graph spec needs a family or an edge list")
	}
}

// handleLabel computes (or cache-hits) a labeling and returns the binary
// wire format. The metadata envelope travels as the Radiobcast-Meta
// header; clients that ask "Accept: application/json" instead get a JSON
// envelope with the blob base64-encoded.
func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request) int {
	var req client.LabelRequest
	if code := decodeJSON(w, r, &req); code != 0 {
		return code
	}
	net, herr := s.buildNetwork(req.Graph)
	if herr != nil {
		return herr.write(w)
	}
	net.At(req.Source).Coordinated(req.Coordinator)
	l, err := s.sess.Label(r.Context(), net, req.Scheme)
	if err != nil {
		return writeFacadeError(w, err)
	}
	blob, err := l.MarshalBinary()
	if err != nil {
		return writeFacadeError(w, err)
	}
	meta := client.LabelMeta{
		Scheme: l.Scheme, N: l.Graph.N(), M: l.Graph.M(), Source: l.Source,
		Bits: l.Bits(), Distinct: l.Distinct(), Bytes: len(blob),
	}
	if wantsJSON(r) {
		return writeJSON(w, client.LabelEnvelope{Meta: meta, Labeling: blob})
	}
	metaJSON, _ := json.Marshal(meta)
	w.Header().Set("Content-Type", radiobcast.LabelingContentType)
	w.Header().Set(client.MetaHeader, string(metaJSON))
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
	return http.StatusOK
}

func wantsJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// handleRun labels (through the Session cache) and executes one
// broadcast, answering the Outcome as JSON.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) int {
	var req client.RunRequest
	if code := decodeJSON(w, r, &req); code != 0 {
		return code
	}
	if req.FaultRate < 0 || req.FaultRate >= 1 {
		return badRequest("fault_rate %g outside [0,1)", req.FaultRate).write(w)
	}
	if req.Fault != nil && req.FaultRate > 0 {
		return badRequest("request has both fault_rate and fault; send one").write(w)
	}
	if req.MaxRounds > s.cfg.MaxRounds {
		return limitExceeded("max_rounds %d exceeds the limit of %d", req.MaxRounds, s.cfg.MaxRounds).write(w)
	}
	net, herr := s.buildNetwork(req.Graph)
	if herr != nil {
		return herr.write(w)
	}
	net.At(req.Source).Coordinated(req.Coordinator)
	var opts []radiobcast.Option
	if req.Mu != "" {
		opts = append(opts, radiobcast.WithMessage(req.Mu))
	}
	if req.MaxRounds > 0 {
		opts = append(opts, radiobcast.WithMaxRounds(req.MaxRounds))
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	faulty := false
	switch {
	case req.Fault != nil:
		fs := *req.Fault
		if fs.Seed == 0 {
			fs.Seed = seed
		}
		// An invalid spec surfaces as bad_fault_spec from the facade.
		opts = append(opts, radiobcast.WithFaultSpec(fs))
		faulty = true
	case req.FaultRate > 0:
		opts = append(opts, radiobcast.FaultRate(req.FaultRate, seed))
		faulty = true
	}
	out, err := s.sess.Run(r.Context(), net, req.Scheme, opts...)
	if err != nil {
		return writeFacadeError(w, err)
	}
	return writeJSON(w, outcomeJSON(out, faulty))
}

// handleRunLabeled executes a broadcast over an uploaded wire-format
// labeling; run options arrive as query parameters (the body is the
// labeling itself).
func (s *Server) handleRunLabeled(w http.ResponseWriter, r *http.Request) int {
	if ct := r.Header.Get("Content-Type"); ct != "" &&
		ct != radiobcast.LabelingContentType && ct != "application/octet-stream" {
		return writeError(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
			fmt.Sprintf("run-labeled takes a %s body, got %q", radiobcast.LabelingContentType, ct))
	}
	l, err := radiobcast.ReadLabeling(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return writeError(w, http.StatusRequestEntityTooLarge, "limit_exceeded",
				fmt.Sprintf("labeling exceeds %d bytes", mbe.Limit))
		}
		if errors.Is(err, radiobcast.ErrLabelingMismatch) {
			// A blob whose z or r disagrees with its labels.
			return writeFacadeError(w, fmt.Errorf("decoding labeling: %w", err))
		}
		return writeError(w, http.StatusBadRequest, "bad_request", "decoding labeling: "+err.Error())
	}
	if l.Graph.N() > s.cfg.MaxGraphN {
		return limitExceeded("labeling's graph has %d nodes, exceeding the limit of %d", l.Graph.N(), s.cfg.MaxGraphN).write(w)
	}
	var opts []radiobcast.Option
	q := r.URL.Query()
	if v := q.Get("source"); v != "" {
		src, err := strconv.Atoi(v)
		if err != nil {
			return badRequest("bad source %q", v).write(w)
		}
		opts = append(opts, radiobcast.WithSource(src))
	}
	if v := q.Get("mu"); v != "" {
		opts = append(opts, radiobcast.WithMessage(v))
	}
	if v := q.Get("max_rounds"); v != "" {
		mr, err := strconv.Atoi(v)
		if err != nil {
			return badRequest("bad max_rounds %q", v).write(w)
		}
		if mr > s.cfg.MaxRounds {
			return limitExceeded("max_rounds %d exceeds the limit of %d", mr, s.cfg.MaxRounds).write(w)
		}
		opts = append(opts, radiobcast.WithMaxRounds(mr))
	}
	out, err := s.sess.RunLabeled(r.Context(), l, opts...)
	if err != nil {
		return writeFacadeError(w, err)
	}
	return writeJSON(w, outcomeJSON(out, false))
}

// handleSweep validates the grid, takes a slot of the bounded sweep pool
// (answering 429 + Retry-After when saturated — the pool never queues),
// and streams cells as NDJSON in completion order straight off
// Session.Sweep's iterator. Client disconnect cancels through the request
// context; the paid-for prefix is whatever was already flushed.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) int {
	var req client.SweepRequest
	if code := decodeJSON(w, r, &req); code != 0 {
		return code
	}
	spec := radiobcast.SweepSpec{
		Families: req.Families, Sizes: req.Sizes, Schemes: req.Schemes,
		Sources: req.Sources, FaultRates: req.FaultRates, Faults: req.Faults,
		Repeats: req.Repeats,
		Mu:      req.Mu, MaxRounds: req.MaxRounds, Seed: req.Seed,
		Workers: s.cfg.SweepWorkers,
	}
	if herr := s.validateSweep(&req); herr != nil {
		return herr.write(w)
	}

	select {
	case s.sweepSem <- struct{}{}:
		defer func() { <-s.sweepSem }()
	default:
		w.Header().Set("Retry-After", "1")
		return writeError(w, http.StatusTooManyRequests, "saturated",
			fmt.Sprintf("all %d sweep slots busy; retry later", cap(s.sweepSem)))
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	cells := 0
	for res, err := range s.sess.Sweep(r.Context(), spec) {
		if err != nil {
			// Whole-sweep failure (cancellation, closed session): the
			// status line already went out, so the error travels as the
			// final NDJSON line.
			_, code := mapError(err)
			_ = enc.Encode(client.SweepLine{Error: &client.ErrorDetail{Code: code, Message: err.Error()}})
			_ = rc.Flush()
			return http.StatusOK
		}
		if err := enc.Encode(client.SweepLine{Cell: cellJSON(res)}); err != nil {
			return http.StatusOK // client went away; ctx cancellation stops the pool
		}
		cells++
		_ = rc.Flush()
	}
	_ = enc.Encode(client.SweepLine{Done: &client.SweepSummary{Cells: cells}})
	_ = rc.Flush()
	return http.StatusOK
}

// validateSweep front-loads every check that should 4xx before the
// streaming response commits to a 200.
func (s *Server) validateSweep(req *client.SweepRequest) *httpErr {
	if len(req.Families) == 0 || len(req.Sizes) == 0 || len(req.Schemes) == 0 {
		return badRequest("sweep needs at least one family, size and scheme")
	}
	known := radiobcast.FamilyNames()
	for _, f := range req.Families {
		if !slices.Contains(known, f) {
			return badRequest("unknown graph family %q (known: %v)", f, known)
		}
	}
	for _, sch := range req.Schemes {
		if _, ok := radiobcast.Lookup(sch); !ok {
			return &httpErr{http.StatusBadRequest, "unknown_scheme",
				fmt.Sprintf("unknown scheme %q (registered: %v)", sch, radiobcast.SchemeNames())}
		}
	}
	for _, n := range req.Sizes {
		if n < 1 {
			return badRequest("graph size %d: a network needs at least one node", n)
		}
		if n > s.cfg.MaxGraphN {
			return limitExceeded("graph size %d exceeds the limit of %d nodes", n, s.cfg.MaxGraphN)
		}
	}
	for _, rate := range req.FaultRates {
		if rate < 0 || rate >= 1 {
			return badRequest("fault_rate %g outside [0,1)", rate)
		}
	}
	for i, fs := range req.Faults {
		if err := fs.Validate(); err != nil {
			return &httpErr{http.StatusBadRequest, "bad_fault_spec",
				fmt.Sprintf("faults[%d]: %v", i, err)}
		}
	}
	if req.MaxRounds > s.cfg.MaxRounds {
		return limitExceeded("max_rounds %d exceeds the limit of %d", req.MaxRounds, s.cfg.MaxRounds)
	}
	cells := len(req.Families) * len(req.Sizes) * len(req.Schemes) *
		max(1, len(req.Sources)) * max(1, len(req.FaultRates)+len(req.Faults)) * max(1, req.Repeats)
	if cells > s.cfg.MaxSweepCells {
		return limitExceeded("sweep grid has %d cells, exceeding the limit of %d", cells, s.cfg.MaxSweepCells)
	}
	return nil
}

func cellJSON(res radiobcast.CellResult) *client.SweepCellResult {
	c := &client.SweepCellResult{
		Family: res.Cell.Family, Size: res.Cell.Size, Scheme: res.Cell.Scheme,
		Source: res.Cell.Source, FaultRate: res.Cell.FaultRate, Fault: res.Cell.Fault,
		Repeat: res.Cell.Repeat,
		Index:  res.Index, N: res.N, Verified: res.Verified,
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

func outcomeJSON(out *radiobcast.Outcome, faulty bool) *client.RunResponse {
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
		if err := radiobcast.Verify(out); err != nil {
			resp.VerifyError = err.Error()
		} else {
			resp.Verified = true
		}
	}
	return resp
}
