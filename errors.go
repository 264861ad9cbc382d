package radiobcast

import (
	"errors"
	"fmt"
)

// Sentinel errors for every impossible-setup failure the facade can
// report. All facade entry points wrap these, so callers branch with
// errors.Is regardless of the message text:
//
//	if errors.Is(err, radiobcast.ErrUnknownScheme) { ... }
//
// The structured types below (UnknownSchemeError, NodeOutOfRangeError,
// LabelingMismatchError) carry the offending values for errors.As.
// Cancellation is NOT one of these: a cancelled run returns the ctx's own
// error (context.Canceled / context.DeadlineExceeded) alongside partial
// results.
var (
	// ErrUnknownScheme reports a scheme name absent from the registry.
	ErrUnknownScheme = errors.New("unknown scheme")
	// ErrNodeOutOfRange reports a source or coordinator outside [0, n).
	ErrNodeOutOfRange = errors.New("node out of range")
	// ErrNilNetwork reports a nil *Network or a Network with a nil Graph.
	ErrNilNetwork = errors.New("nil network")
	// ErrLabelingMismatch reports a Labeling unusable for the requested
	// run: nil, missing its graph, or a decoded wire format whose contents
	// contradict themselves.
	ErrLabelingMismatch = errors.New("labeling mismatch")
	// ErrSessionClosed reports an operation on a Session after Close: the
	// session is draining (or drained) and accepts no new work.
	ErrSessionClosed = errors.New("session closed")
	// ErrBadFaultSpec reports an unusable fault-model description: an
	// unknown model name, a NaN or out-of-range rate, or a malformed
	// schedule. Faults never fail silently — a spec either materializes or
	// the run refuses to start.
	ErrBadFaultSpec = errors.New("bad fault spec")
	// ErrNoLabeling reports a labeling search that found no labeling for
	// the graph and source ("gjp", "onebit"): their 1-bit broadcast is
	// not universal, so the request is well formed but cannot be served.
	ErrNoLabeling = errors.New("no labeling")
)

// errorCodes maps every sentinel above to its stable machine-readable
// code. The codes are API: they travel in the daemon's JSON error bodies
// and must never change meaning once published, so new sentinels get new
// codes and TestErrorCodeExhaustive pins that this table covers every
// Err* variable in this file.
var errorCodes = []struct {
	err  error
	code string
}{
	{ErrUnknownScheme, "unknown_scheme"},
	{ErrNodeOutOfRange, "node_out_of_range"},
	{ErrNilNetwork, "nil_network"},
	{ErrLabelingMismatch, "labeling_mismatch"},
	{ErrSessionClosed, "session_closed"},
	{ErrBadFaultSpec, "bad_fault_spec"},
	{ErrNoLabeling, "no_labeling"},
}

// ErrorCode maps err to the stable machine-readable code of the facade
// sentinel it wraps ("unknown_scheme", "node_out_of_range", "nil_network",
// "labeling_mismatch", "session_closed", "bad_fault_spec", "no_labeling").
// The second result is false when err wraps none of the sentinels —
// cancellation, I/O and other non-facade errors have no code here;
// network-facing callers translate those themselves (the daemon uses
// "canceled" and "internal").
func ErrorCode(err error) (string, bool) {
	for _, sc := range errorCodes {
		if errors.Is(err, sc.err) {
			return sc.code, true
		}
	}
	return "", false
}

// UnknownSchemeError is the errors.As carrier for ErrUnknownScheme.
type UnknownSchemeError struct {
	// Name is the scheme name that failed to resolve.
	Name string
	// Registered lists the names that would have resolved.
	Registered []string
}

func (e *UnknownSchemeError) Error() string {
	return fmt.Sprintf("radiobcast: unknown scheme %q (registered: %v)", e.Name, e.Registered)
}

func (e *UnknownSchemeError) Unwrap() error { return ErrUnknownScheme }

// unknownScheme builds the canonical unknown-scheme error.
func unknownScheme(name string) error {
	return &UnknownSchemeError{Name: name, Registered: SchemeNames()}
}

// NodeOutOfRangeError is the errors.As carrier for ErrNodeOutOfRange.
type NodeOutOfRangeError struct {
	// Role says which knob was out of range ("source", "coordinator").
	Role string
	// Node is the offending node id; N is the graph's node count.
	Node, N int
}

func (e *NodeOutOfRangeError) Error() string {
	return fmt.Sprintf("radiobcast: %s %d out of range [0,%d)", e.Role, e.Node, e.N)
}

func (e *NodeOutOfRangeError) Unwrap() error { return ErrNodeOutOfRange }

// LabelingMismatchError is the errors.As carrier for ErrLabelingMismatch.
type LabelingMismatchError struct {
	// Reason describes the mismatch.
	Reason string
}

func (e *LabelingMismatchError) Error() string {
	return "radiobcast: labeling mismatch: " + e.Reason
}

func (e *LabelingMismatchError) Unwrap() error { return ErrLabelingMismatch }

func labelingMismatch(format string, args ...any) error {
	return &LabelingMismatchError{Reason: fmt.Sprintf(format, args...)}
}

func nilNetwork() error {
	return fmt.Errorf("radiobcast: %w", ErrNilNetwork)
}

// BadFaultSpecError is the errors.As carrier for ErrBadFaultSpec.
type BadFaultSpecError struct {
	// Reason describes what made the spec unusable.
	Reason string
}

func (e *BadFaultSpecError) Error() string {
	return "radiobcast: bad fault spec: " + e.Reason
}

func (e *BadFaultSpecError) Unwrap() error { return ErrBadFaultSpec }

func badFaultSpec(format string, args ...any) error {
	return &BadFaultSpecError{Reason: fmt.Sprintf(format, args...)}
}
