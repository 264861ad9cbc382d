package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"radiobcast/internal/experiments"
)

// TestExperimentsGolden regenerates the full experiment output and fails
// when it differs from the committed EXPERIMENTS.md, naming the first
// table that differs. A change that moves the output commits the new file
// (go run ./cmd/experiments -o EXPERIMENTS.md), so its diff is reviewed.
// The output must not depend on the worker count either.
func TestExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	got := generate(t, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from EXPERIMENTS.md from table %s on; refresh it with `go run ./cmd/experiments -o EXPERIMENTS.md`",
			firstDiff(got, want))
	}
	if one := generate(t, 1); !bytes.Equal(one, got) {
		t.Fatalf("-workers 1 output differs from the default from table %s on", firstDiff(one, got))
	}
}

func generate(t *testing.T, workers int) []byte {
	t.Helper()
	var out bytes.Buffer
	cfg := experiments.Config{Workers: workers}
	if err := write(&out, io.Discard, experiments.Registry, cfg, false); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// firstDiff names the table, by the ID of its "== ID: title ==" header,
// that holds the first byte where a and b differ.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	line := bytes.LastIndexByte(a[:i], '\n') + 1
	start := bytes.LastIndex(a[:min(len(a), line+3)], []byte("\n== ")) + 1
	if !bytes.HasPrefix(a[start:], []byte("== ")) {
		return "(before the first table)"
	}
	header := a[start+3:]
	if end := bytes.IndexAny(header, ":\n"); end >= 0 {
		header = header[:end]
	}
	return string(header)
}
