// Package client is the typed Go client of the radiobcastd HTTP API —
// the network face of the paper's central-monitor story: a daemon that
// knows how to label graphs and run broadcasts, spoken to over HTTP/JSON
// with labelings travelling in the binary wire format.
//
// This package also declares the API's request and response types; the
// daemon (internal/httpd) serves exactly these, so the wire contract has
// one source of truth and external consumers never need to import an
// internal package.
//
//	c := client.New("http://localhost:8080")
//	out, err := c.Run(ctx, client.RunRequest{
//		Graph:  client.GraphSpec{Family: "grid", N: 64},
//		Scheme: "b",
//		Mu:     "update",
//	})
//
// Errors carry the server's stable machine-readable code (see
// radiobcast.ErrorCode for the facade half of the codes) as *APIError.
package client

import (
	"fmt"
	"time"

	"radiobcast"
)

// GraphSpec names the topology of a request: either a generated family
// member (Family + N, the same names radiobcast.Family accepts, including
// "figure1") or an explicit edge list. Exactly one of the two forms must
// be present.
type GraphSpec struct {
	// Family is a graph family name (see radiobcast.FamilyNames).
	Family string `json:"family,omitempty"`
	// N is the requested size of the family member (generators may round).
	N int `json:"n,omitempty"`

	// Edges is an explicit undirected edge list over 0-based node ids.
	Edges [][2]int `json:"edges,omitempty"`
	// Nodes is the node count of the explicit graph; 0 means "largest
	// endpoint + 1".
	Nodes int `json:"nodes,omitempty"`
}

// LabelRequest asks POST /v1/label for a labeling.
type LabelRequest struct {
	Graph  GraphSpec `json:"graph"`
	Scheme string    `json:"scheme"`
	// Source is the designated source node (coordinator semantics for
	// scheme "barb" live in Coordinator).
	Source int `json:"source,omitempty"`
	// Coordinator is scheme "barb"'s coordinator r.
	Coordinator int `json:"coordinator,omitempty"`
}

// LabelMeta is the JSON metadata envelope accompanying a labeling: in
// binary responses it travels in the Radiobcast-Meta header, in JSON
// responses inside LabelEnvelope.
type LabelMeta struct {
	Scheme   string `json:"scheme"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	Source   int    `json:"source"`   // the anchor: the source, barb's r, or 0 where labels depend on no node
	Bits     int    `json:"bits"`     // labeling length in bits (§1.1)
	Distinct int    `json:"distinct"` // distinct label values
	Bytes    int    `json:"bytes"`    // size of the wire-format blob
}

// MetaHeader is the response header carrying the LabelMeta envelope when
// /v1/label answers in binary.
const MetaHeader = "Radiobcast-Meta"

// LabelEnvelope is /v1/label's response body when the client asks for
// application/json: the metadata envelope plus the wire-format blob
// (base64-encoded by encoding/json).
type LabelEnvelope struct {
	Meta     LabelMeta `json:"meta"`
	Labeling []byte    `json:"labeling"`
}

// RunRequest asks POST /v1/run for one labeled broadcast.
type RunRequest struct {
	Graph       GraphSpec `json:"graph"`
	Scheme      string    `json:"scheme"`
	Source      int       `json:"source,omitempty"`
	Coordinator int       `json:"coordinator,omitempty"`
	// Mu is the broadcast message (server default "µ").
	Mu string `json:"mu,omitempty"`
	// MaxRounds overrides the scheme's round bound when > 0 (capped by
	// the server).
	MaxRounds int `json:"max_rounds,omitempty"`
	// FaultRate jams each transmission independently with this
	// probability, in [0, 1); fault-free runs are Verify-checked.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Fault selects a richer fault model (jamming, crash–recovery, churn,
	// duty-cycling, or a composition; see radiobcast.FaultSpec). Mutually
	// exclusive with FaultRate; invalid specs answer 400 with code
	// "bad_fault_spec".
	Fault *radiobcast.FaultSpec `json:"fault,omitempty"`
	// Seed drives the deterministic fault model (server default 1).
	Seed int64 `json:"seed,omitempty"`
}

// RunLabeledParams are the query parameters of POST /v1/run-labeled (the
// body is the wire-format labeling itself).
type RunLabeledParams struct {
	// Source overrides the labeling's source, its anchor, when non-nil
	// (useful for "barb", "roundrobin", "colorrobin" and "flooding"
	// labelings, whose labels do not depend on the source).
	Source *int
	// Mu is the broadcast message (server default "µ").
	Mu string
	// MaxRounds overrides the scheme's round bound when > 0.
	MaxRounds int
}

// RunResponse is the Outcome of one broadcast as JSON.
type RunResponse struct {
	Scheme             string `json:"scheme"`
	N                  int    `json:"n"`
	M                  int    `json:"m"`
	Source             int    `json:"source"`
	Mu                 string `json:"mu"`
	AllInformed        bool   `json:"all_informed"`
	CompletionRound    int    `json:"completion_round"`
	Rounds             int    `json:"rounds"`
	TotalTransmissions int    `json:"total_transmissions"`
	MaxMessageBits     int    `json:"max_message_bits"`
	// AckRound is scheme "back"'s acknowledgement round (0 when absent).
	AckRound int `json:"ack_round,omitempty"`
	// LabelBits is the labeling length the run executed under.
	LabelBits int `json:"label_bits,omitempty"`
	// Coverage is the informed fraction of the network; Degraded grades it
	// ("none", "minor", "major", "severe", "total") — the graceful-
	// degradation measure for runs under faults.
	Coverage float64 `json:"coverage"`
	Degraded string  `json:"degraded,omitempty"`
	// Interrupted reports a run cut short by a deadline: the numbers
	// above describe the executed prefix.
	Interrupted bool `json:"interrupted,omitempty"`
	// Verified reports that the run was fault-free and the scheme's
	// guarantees held; VerifyError carries the failure otherwise. Faulty
	// runs are never verified — broken broadcasts are their data.
	Verified    bool   `json:"verified"`
	VerifyError string `json:"verify_error,omitempty"`
}

// SweepRequest asks POST /v1/sweep for a batched grid of runs, streamed
// back as NDJSON SweepLines in completion order. It mirrors
// radiobcast.SweepSpec; the worker-pool size is the server's choice.
type SweepRequest struct {
	Families   []string  `json:"families"`
	Sizes      []int     `json:"sizes"`
	Schemes    []string  `json:"schemes"`
	Sources    []int     `json:"sources,omitempty"`
	FaultRates []float64 `json:"fault_rates,omitempty"`
	// Faults extends the fault axis with rich fault-model points (one
	// sweep column per spec; see radiobcast.SweepSpec.Faults).
	Faults    []radiobcast.FaultSpec `json:"faults,omitempty"`
	Repeats   int                    `json:"repeats,omitempty"`
	Mu        string                 `json:"mu,omitempty"`
	MaxRounds int                    `json:"max_rounds,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
}

// SweepLine is one NDJSON line of a /v1/sweep response — exactly one of
// the three fields is set. Cell lines arrive in completion order; the
// stream ends with either a Done summary (clean completion) or an Error
// line (whole-sweep failure — per-cell failures travel inside their
// cells). A stream with neither was truncated.
type SweepLine struct {
	Cell  *SweepCellResult `json:"cell,omitempty"`
	Error *ErrorDetail     `json:"error,omitempty"`
	Done  *SweepSummary    `json:"done,omitempty"`
}

// SweepCellResult is one grid cell's outcome.
type SweepCellResult struct {
	Family    string  `json:"family"`
	Size      int     `json:"size"`
	Scheme    string  `json:"scheme"`
	Source    int     `json:"source"`
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Fault labels the cell's fault-model point on the Faults axis
	// (empty for the FaultRates axis).
	Fault  string `json:"fault,omitempty"`
	Repeat int    `json:"repeat,omitempty"`
	// Index is the cell's position in grid order, so a consumer can
	// re-establish it from the completion-order stream.
	Index           int     `json:"index"`
	N               int     `json:"n"`
	AllInformed     bool    `json:"all_informed"`
	CompletionRound int     `json:"completion_round"`
	Rounds          int     `json:"rounds"`
	Coverage        float64 `json:"coverage,omitempty"`
	Degraded        string  `json:"degraded,omitempty"`
	Verified        bool    `json:"verified"`
	Error           string  `json:"error,omitempty"`
}

// SweepSummary is the final line of a completed sweep stream.
type SweepSummary struct {
	Cells int `json:"cells"`
}

// ErrorBody is the JSON body of every non-2xx API response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the stable machine-readable code and a human
// message. Codes for facade failures come from radiobcast.ErrorCode
// ("unknown_scheme", "node_out_of_range", "nil_network",
// "labeling_mismatch", "session_closed", "bad_fault_spec", "no_labeling");
// the daemon adds transport-level codes ("bad_request", "limit_exceeded",
// "rate_limited", "saturated", "draining", "canceled",
// "unsupported_media_type", "internal").
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// APIError is the typed error the client returns for any non-2xx
// response.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable error code.
	Code string
	// Message is the human-readable description.
	Message string
	// RetryAfter is the server's Retry-After hint (0 when absent) — set
	// on 429 responses from rate limiting and sweep-pool saturation.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("radiobcastd: %s (%d %s)", e.Message, e.Status, e.Code)
}
