package radiobcast

// DecodeOnto exposes the codec's known-graph decode path (the one store
// hits take) to the external tests.
func (l *Labeling) DecodeOnto(data []byte, known *Graph) error { return l.decode(data, known) }
