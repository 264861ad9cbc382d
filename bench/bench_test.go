package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"radiobcast"
	"radiobcast/client"
)

// buildDaemon builds cmd/radiobcastd into the test's temporary directory.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "radiobcastd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/radiobcastd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building radiobcastd: %v\n%s", err, out)
	}
	return bin
}

// testContext ends at the test's deadline, if it has one.
func testContext(t *testing.T) context.Context {
	ctx := context.Background()
	if dl, ok := t.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, dl)
		t.Cleanup(cancel)
	}
	return ctx
}

// TestSmoke runs every workload of BENCHMARK.json for one second with no
// warm-up, traced, against a freshly built daemon. No operation may fail,
// and every metric BENCHMARK.json names must be emitted with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds radiobcastd and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark implements %v", names, workloadNames)
	}

	daemon := buildDaemon(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := run(testContext(t), options{
				workload: w.Name, seed: 1, window: time.Second, trace: true,
				daemon: daemon, work: t.TempDir(),
			}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
			}
			for _, set := range []struct {
				want []named
				got  map[string]metric
			}{{spec.EndToEnd, rep.e2e}, {spec.PerLayer, rep.layers}} {
				for _, m := range set.want {
					if got, ok := set.got[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
				}
				if len(set.got) != len(set.want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(set.got), len(set.want))
				}
			}
		})
	}
}

// TestInprocMatchesDaemon sends the first requests of every workload's
// seeded sequence, set-up pass included, to the daemon and to the
// in-process mirror the traced pass uses, and requires the same decoded
// responses. It keeps inproc.go's copy of the handlers from drifting away
// from what the daemon does.
func TestInprocMatchesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds radiobcastd and runs every workload")
	}
	daemon := buildDaemon(t)
	requests := map[string]int{"run-hot": 300, "label-cold": 40, "store-restart": 100, "sweep": 2}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ctx := testContext(t)
			record := func(b backend) []string {
				t.Helper()
				w, err := newWorkload(name, 1)
				if err != nil {
					t.Fatal(err)
				}
				r := &recorder{b: b}
				if err := w.setup(ctx, r); err != nil {
					t.Fatalf("set-up pass: %v", err)
				}
				for i := range requests[name] {
					if err := w.do(ctx, r, i); err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
				}
				return r.out
			}

			w, err := newWorkload(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := populateDaemon(ctx, daemon, w, dir); err != nil {
				t.Fatal(err)
			}
			d, err := startDaemon(ctx, daemon, 1, w.daemonArgs(dir)...)
			if err != nil {
				t.Fatal(err)
			}
			defer d.kill()
			want := record(d.client)

			p, err := openInproc(ctx, w, t.TempDir(), newTracer())
			if err != nil {
				t.Fatal(err)
			}
			defer p.sess.Close(ctx)
			got := record(p)

			if len(got) != len(want) {
				t.Fatalf("in-process mirror answered %d calls, daemon %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("call %d: in-process mirror answered\n%.600s\ndaemon answered\n%.600s", i, got[i], want[i])
				}
			}
		})
	}
}

// recorder forwards every call to a backend and keeps each decoded
// response, encoded as JSON, so two backends can be compared call by call.
type recorder struct {
	b   backend
	out []string
}

func (r *recorder) keep(v any) error {
	b, err := json.Marshal(v)
	r.out = append(r.out, string(b))
	return err
}

func (r *recorder) Label(ctx context.Context, lr client.LabelRequest) (*radiobcast.Labeling, *client.LabelMeta, error) {
	l, meta, err := r.b.Label(ctx, lr)
	if err != nil {
		return nil, nil, err
	}
	blob, err := l.MarshalBinary()
	if err == nil {
		err = r.keep(struct {
			Meta *client.LabelMeta
			Blob []byte
		}{meta, blob})
	}
	return l, meta, err
}

func (r *recorder) Run(ctx context.Context, rr client.RunRequest) (*client.RunResponse, error) {
	resp, err := r.b.Run(ctx, rr)
	if err != nil {
		return nil, err
	}
	return resp, r.keep(resp)
}

func (r *recorder) RunLabeled(ctx context.Context, l *radiobcast.Labeling, p client.RunLabeledParams) (*client.RunResponse, error) {
	resp, err := r.b.RunLabeled(ctx, l, p)
	if err != nil {
		return nil, err
	}
	return resp, r.keep(resp)
}

// Sweep keeps the cells in grid order; both backends stream them in
// completion order.
func (r *recorder) Sweep(ctx context.Context, sr client.SweepRequest, onCell func(client.SweepCellResult) error) (int, error) {
	var cells []client.SweepCellResult
	n, err := r.b.Sweep(ctx, sr, func(c client.SweepCellResult) error {
		cells = append(cells, c)
		return onCell(c)
	})
	if err != nil {
		return n, err
	}
	slices.SortFunc(cells, func(a, b client.SweepCellResult) int { return a.Index - b.Index })
	return n, r.keep(cells)
}

// TestQuartiles pins the spread computation to Python's
// statistics.quantiles(data, n=4), which the acceptance of BENCHMARK.json
// is defined by.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1}, 0, 6}, // Python extrapolates below two samples per quartile
	} {
		if q1, q3 := quartiles(tc.data); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
}
