package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"
)

// span is one timed layer call of the traced pass. Names are the metric
// prefixes of BENCHMARK.json's per-layer metrics (graph.build,
// session.label_hit, ...), the vocabulary in-program tracing is to reuse.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Req    string `json:"req"`    // the request or cell the span belongs to
}

// tracer records spans in memory; they are written out when the traced
// pass ends. It is used by one goroutine. While off, begin and end do
// nothing, so untraced set-up passes leave no spans.
type tracer struct {
	on    bool
	t0    time.Time
	req   string
	spans []span
	open  []int // stack of open spans; the top encloses the next begin
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span inside the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: t.req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, and any span opened inside it that an early return
// left open.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := t.now()
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].End = now
		if top == id {
			return
		}
	}
}

func (t *tracer) rename(id int, name string) {
	if id >= 0 {
		t.spans[id].Name = name
	}
}

// time runs f inside a span and returns its duration.
func (t *tracer) time(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	id := t.begin(name)
	err := f()
	t.end(id)
	return time.Since(start), err
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerTimes is the time of each layer summed over a set of operations,
// in the order the layers first appeared.
type layerTimes struct {
	ops     int
	order   []layerKey
	selfNs  map[layerKey]int64
	totalNs map[layerKey]int64
	calls   map[layerKey]int
}

// layerKey names a layer on one side of the wire: codec.marshal and
// codec.unmarshal run on both.
type layerKey struct {
	name   string
	client bool
}

// opLayers aggregates the spans under the replay's operation roots (spans
// named "op"). A span's self time is its duration minus the time its
// children cover. A span is client-side when it is a client.* span or
// sits under one.
func (t *tracer) opLayers() *layerTimes {
	lt := &layerTimes{selfNs: map[layerKey]int64{}, totalNs: map[layerKey]int64{}, calls: map[layerKey]int{}}
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	// Spans are appended in start order, so a parent is visited before
	// its children.
	inOp := make([]bool, len(t.spans))
	onClient := make([]bool, len(t.spans))
	for i, s := range t.spans {
		switch parent := t.spans[max(s.Parent, 0)]; {
		case s.Parent < 0:
			if s.Name == "op" {
				lt.ops++
			}
			continue
		case parent.Parent < 0:
			if parent.Name != "op" {
				continue
			}
			onClient[i] = strings.HasPrefix(s.Name, "client.")
		case !inOp[s.Parent]:
			continue
		default:
			onClient[i] = onClient[s.Parent]
		}
		inOp[i] = true
		k := layerKey{s.Name, onClient[i]}
		if _, seen := lt.calls[k]; !seen {
			lt.order = append(lt.order, k)
		}
		lt.selfNs[k] += s.End - s.Start - childNs[i]
		lt.totalNs[k] += s.End - s.Start
		lt.calls[k]++
	}
	return lt
}

// perOp converts a nanosecond total into milliseconds per operation.
func (lt *layerTimes) perOp(ns int64) float64 {
	if lt.ops == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(lt.ops)
}

// inclusivePerOp returns a layer's whole span time, children included and
// both sides summed, per operation in milliseconds. The request-shaped
// layers are reported this way, so client.decode_ms includes decoding the
// labeling blob.
func (lt *layerTimes) inclusivePerOp(name string) float64 {
	return lt.perOp(lt.totalNs[layerKey{name, false}] + lt.totalNs[layerKey{name, true}])
}

// printBudget writes the time-budget table of one workload: each layer's
// self time per operation, their sum on the server side against the
// daemon's untraced handler time, and the client side against the
// client-observed latency.
func (lt *layerTimes) printBudget(w io.Writer, workload string, handlerMs, clientMs float64) {
	fmt.Fprintf(w, "time budget per operation, %s (%d traced operations):\n", workload, lt.ops)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tside\tcalls/op\tself ms/op\t")
	var server, clientSide float64
	for _, k := range lt.order {
		side, self := "server", lt.perOp(lt.selfNs[k])
		if k.client {
			side = "client"
			clientSide += self
		} else {
			server += self
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.4f\t\n", k.name, side, float64(lt.calls[k])/float64(max(lt.ops, 1)), self)
	}
	fmt.Fprintf(tw, "sum of server layers\t\t\t%.4f\t\n", server)
	fmt.Fprintf(tw, "httpd.handler_ms (daemon, untraced)\t\t\t%.4f\t\n", handlerMs)
	fmt.Fprintf(tw, "unaccounted (handler - server layers)\t\t\t%.4f\t\n", handlerMs-server)
	fmt.Fprintf(tw, "sum of client layers\t\t\t%.4f\t\n", clientSide)
	fmt.Fprintf(tw, "client-observed mean latency\t\t\t%.4f\t\n", clientMs)
	tw.Flush()
}
