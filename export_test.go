package radiobcast

import (
	"radiobcast/internal/graph"
	"radiobcast/internal/radio"
)

// DecodeOnto exposes the codec's known-graph decode path (the one store
// hits take) to the external tests.
func (l *Labeling) DecodeOnto(data []byte, known *Graph) error { return l.decode(data, known) }

// WithEngine runs the broadcast on engine instead of the package's
// engine (radio.Options.Engine), so the external tests can run every
// scheme on the reference engine of internal/radio/radiotest.
func WithEngine(engine func(*graph.Graph, []radio.Protocol, radio.Options) *radio.Result) Option {
	return func(c *Config) { c.engine = engine }
}
