// Endpoint-level tests of the daemon: every route through a real
// httptest server, driven by the typed client where one exists — so the
// wire contract is exercised from both ends at once.
package httpd_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"radiobcast"
	"radiobcast/client"
	"radiobcast/internal/httpd"
)

// newTestServer builds a daemon with rate limiting off (tests hammer from
// one address) and returns it with an httptest server and a typed client.
func newTestServer(t *testing.T, cfg httpd.Config) (*httpd.Server, *httptest.Server, *client.Client) {
	t.Helper()
	if cfg.RatePerSec == 0 {
		cfg.RatePerSec = -1
	}
	srv := httpd.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, client.New(ts.URL)
}

func TestHealthzReadyz(t *testing.T) {
	srv, _, c := newTestServer(t, httpd.Config{})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("readyz: %v", err)
	}
	srv.StartDrain()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz while draining must stay 200 (liveness): %v", err)
	}
	err := c.Ready(ctx)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: err = %v, want 503", err)
	}
}

func TestLabelBinary(t *testing.T) {
	_, _, c := newTestServer(t, httpd.Config{})
	l, meta, err := c.Label(context.Background(), client.LabelRequest{
		Graph:  client.GraphSpec{Family: "grid", N: 25},
		Scheme: "b",
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Scheme != "b" || l.Graph.N() != 25 {
		t.Fatalf("labeling = scheme %q n=%d, want b n=25", l.Scheme, l.Graph.N())
	}
	if meta.N != 25 || meta.Bits == 0 || meta.Bytes == 0 || meta.Scheme != "b" {
		t.Fatalf("meta envelope = %+v", meta)
	}
	// The downloaded artifact must actually run.
	out, err := radiobcast.RunLabeled(l, radiobcast.WithMessage("m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := radiobcast.Verify(out); err != nil {
		t.Fatalf("downloaded labeling failed verification: %v", err)
	}
}

func TestLabelJSONEnvelope(t *testing.T) {
	_, ts, _ := newTestServer(t, httpd.Config{})
	body := `{"graph":{"family":"path","n":8},"scheme":"back"}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/label", strings.NewReader(body))
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var env client.LabelEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Meta.Scheme != "back" || env.Meta.N != 8 || len(env.Labeling) != env.Meta.Bytes {
		t.Fatalf("envelope meta %+v with %d blob bytes", env.Meta, len(env.Labeling))
	}
	var l radiobcast.Labeling
	if err := l.UnmarshalBinary(env.Labeling); err != nil {
		t.Fatalf("base64 blob does not decode: %v", err)
	}
}

func TestRunEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, httpd.Config{MaxRounds: 1000, MaxGraphN: 100})
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		req      client.RunRequest
		wantCode string // "" = success
	}{
		{"grid b", client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 64}, Scheme: "b", Mu: "hello"}, ""},
		{"figure1 back", client.RunRequest{Graph: client.GraphSpec{Family: "figure1"}, Scheme: "back"}, ""},
		{"explicit edges", client.RunRequest{Graph: client.GraphSpec{Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}}, Scheme: "b"}, ""},
		{"faulty run", client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 25}, Scheme: "b", FaultRate: 0.2}, ""},
		{"unknown scheme", client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 16}, Scheme: "nope"}, "unknown_scheme"},
		{"unknown family", client.RunRequest{Graph: client.GraphSpec{Family: "toroid", N: 16}, Scheme: "b"}, "bad_request"},
		{"source out of range", client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 16}, Scheme: "b", Source: 99}, "node_out_of_range"},
		{"empty graph spec", client.RunRequest{Scheme: "b"}, "bad_request"},
		{"family and edges", client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 9, Edges: [][2]int{{0, 1}}}, Scheme: "b"}, "bad_request"},
		{"disconnected edges", client.RunRequest{Graph: client.GraphSpec{Edges: [][2]int{{0, 1}, {2, 3}}}, Scheme: "b"}, "bad_request"},
		{"self loop", client.RunRequest{Graph: client.GraphSpec{Edges: [][2]int{{1, 1}}}, Scheme: "b"}, "bad_request"},
		{"fault rate 1", client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 16}, Scheme: "b", FaultRate: 1}, "bad_request"},
		{"rounds over cap", client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 16}, Scheme: "b", MaxRounds: 5000}, "limit_exceeded"},
		{"graph over cap", client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 900}, Scheme: "b"}, "limit_exceeded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := c.Run(ctx, tc.req)
			if tc.wantCode == "" {
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if !out.AllInformed {
					// Faulty runs may legitimately fail to inform; only
					// fault-free runs must complete and verify.
					if tc.req.FaultRate == 0 {
						t.Fatalf("fault-free run did not inform everyone: %+v", out)
					}
				}
				if tc.req.FaultRate == 0 && !out.Verified {
					t.Fatalf("fault-free run not verified: %+v", out)
				}
				if tc.req.FaultRate > 0 && out.Verified {
					t.Fatalf("faulty run claims verification: %+v", out)
				}
				return
			}
			var ae *client.APIError
			if !errors.As(err, &ae) {
				t.Fatalf("err = %v, want *APIError with code %q", err, tc.wantCode)
			}
			if ae.Code != tc.wantCode {
				t.Fatalf("code = %q (%s), want %q", ae.Code, ae.Message, tc.wantCode)
			}
			if ae.Status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", ae.Status)
			}
		})
	}
}

func TestRunLabeledEndpoint(t *testing.T) {
	_, ts, c := newTestServer(t, httpd.Config{})
	ctx := context.Background()
	net, err := radiobcast.Family("grid", 25)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.RunLabeled(ctx, l, client.RunLabeledParams{Mu: "shipped"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllInformed || !out.Verified || out.Mu != "shipped" {
		t.Fatalf("run-labeled outcome: %+v", out)
	}

	// A wrong content type is refused before the body is read.
	resp, err := http.Post(ts.URL+"/v1/run-labeled", "text/csv", strings.NewReader("a,b"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/csv body: status = %d, want 415", resp.StatusCode)
	}

	// A corrupt blob is a 400 with a decode message, never a panic.
	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1]++ // break the checksum
	resp, err = http.Post(ts.URL+"/v1/run-labeled", radiobcast.LabelingContentType, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var eb client.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
		t.Fatalf("corrupt blob: status=%d body=%+v", resp.StatusCode, eb)
	}
}

// TestLabelNoLabeling pins how a searched scheme's failure is served: no
// 1-bit labeling exists for Figure 1, which is the request's answer, not
// a server fault.
func TestLabelNoLabeling(t *testing.T) {
	_, ts, _ := newTestServer(t, httpd.Config{})
	body := `{"graph":{"family":"figure1"},"scheme":"gjp"}`
	resp, err := http.Post(ts.URL+"/v1/label", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb client.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "no_labeling" {
		t.Fatalf("gjp on figure1: status=%d body=%+v, want 422 no_labeling", resp.StatusCode, eb)
	}
}

// TestLabelSearchTimesOut: a labeling search outlasting RequestTimeout
// is cut at the deadline and served as 503 canceled, not run to the end
// of its search and served as 422 no_labeling.
func TestLabelSearchTimesOut(t *testing.T) {
	_, ts, _ := newTestServer(t, httpd.Config{RequestTimeout: 200 * time.Millisecond})
	body := `{"graph":{"family":"gnp-sparse","n":1024},"scheme":"onebit"}`
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/label", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	took := time.Since(start)
	var eb client.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != "canceled" {
		t.Fatalf("onebit past the deadline: status=%d body=%+v, want 503 canceled", resp.StatusCode, eb)
	}
	if took > 2*time.Second {
		t.Fatalf("answered after %v with a 200ms RequestTimeout, want within 2s", took)
	}
}

// TestFamilySizeBelowOne pins that a family member with fewer than one
// node is the request's fault: 400 bad_request, not a 500 from a panic in
// the generator.
func TestFamilySizeBelowOne(t *testing.T) {
	_, ts, _ := newTestServer(t, httpd.Config{})
	for _, path := range []string{"/v1/run", "/v1/label"} {
		for _, n := range []int{-1, 0} {
			body := fmt.Sprintf(`{"graph":{"family":"path","n":%d},"scheme":"b"}`, n)
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var eb client.ErrorBody
			err = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" {
				t.Fatalf("%s with n=%d: status=%d body=%+v, want 400 bad_request", path, n, resp.StatusCode, eb)
			}
		}
	}
}

// TestRunLabeledRejectsNonBitLabel: an upload whose label is not a bit
// string is a malformed request (400 bad_request), not a run that looks
// like a channel fault.
func TestRunLabeledRejectsNonBitLabel(t *testing.T) {
	_, ts, _ := newTestServer(t, httpd.Config{})
	net, err := radiobcast.Family("path", 8)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	// No Label spells a non-bit string, so write a 10-bit marker label
	// and swap "2x" in by hand under a recomputed CRC.
	const marker = "1111111111"
	l.Labels[3] = radiobcast.MustParseLabel(marker)
	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Replace(blob[:len(blob)-crc32.Size],
		append([]byte{byte(len(marker))}, marker...), []byte("\x022x"), 1)
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))

	resp, err := http.Post(ts.URL+"/v1/run-labeled", radiobcast.LabelingContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb client.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_request" ||
		!strings.Contains(eb.Error.Message, "not a bit") {
		t.Fatalf("label \"2x\": status=%d body=%+v", resp.StatusCode, eb)
	}
}

// TestRunLabeledRejectsWrongZ: an upload whose z varint names another
// node than its labels do contradicts itself, and is answered as README's
// error table says, 400 labeling_mismatch, under a valid CRC.
func TestRunLabeledRejectsWrongZ(t *testing.T) {
	_, ts, _ := newTestServer(t, httpd.Config{})
	net, err := radiobcast.Family("path", 16)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net, "back")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The blob opens with "RBL1", the scheme, the source, z and r. The
	// labels put z at node 15; 15 and 3 are both one-byte varints.
	head := binary.AppendUvarint([]byte("RBL1"), uint64(len(l.Scheme)))
	head = binary.AppendVarint(append(head, l.Scheme...), int64(l.Source))
	at := len(head)
	if l.Z() != 15 || !bytes.HasPrefix(blob, binary.AppendVarint(head, 15)) {
		t.Fatalf("blob does not open with z = 15 (labels give z = %d)", l.Z())
	}
	body := slices.Clone(blob[:len(blob)-crc32.Size])
	body[at] = binary.AppendVarint(nil, 3)[0]
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))

	resp, err := http.Post(ts.URL+"/v1/run-labeled", radiobcast.LabelingContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb client.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "labeling_mismatch" {
		t.Fatalf("back blob claiming z = 3: status=%d body=%+v, want 400 labeling_mismatch", resp.StatusCode, eb)
	}
}

// TestRunLabeledStagelessBlob: a b or back blob may leave out its stage
// lists, which the run does not need but Lemma 2.8's check does; the
// answer is an unverified run with the reason, not a panic.
func TestRunLabeledStagelessBlob(t *testing.T) {
	_, _, c := newTestServer(t, httpd.Config{})
	net, err := radiobcast.Family("path", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"b", "back"} {
		l, err := radiobcast.LabelNetwork(net, scheme)
		if err != nil {
			t.Fatal(err)
		}
		l.Stages = nil
		out, err := c.RunLabeled(context.Background(), l, client.RunLabeledParams{})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !out.AllInformed || out.Verified || !strings.Contains(out.VerifyError, "stages") {
			t.Fatalf("%s without stages: %+v, want a complete run that fails Verify for want of stages", scheme, out)
		}
	}
}

func TestRunLabeledBodyLimit(t *testing.T) {
	_, ts, _ := newTestServer(t, httpd.Config{MaxBodyBytes: 64})
	net, err := radiobcast.Family("grid", 100)
	if err != nil {
		t.Fatal(err)
	}
	l, err := radiobcast.LabelNetwork(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := radiobcast.WriteLabeling(&body, l); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run-labeled", radiobcast.LabelingContentType, &body)
	if err != nil {
		t.Fatal(err)
	}
	var eb client.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Error.Code != "limit_exceeded" {
		t.Fatalf("oversized labeling: status=%d body=%+v", resp.StatusCode, eb)
	}
}

// TestRunLabeledIgnoresDeclaredLength: the body's Content-Length comes
// from the peer, so the daemon must not allocate by it before the bytes
// arrive, even with the body cap off (MaxBodyBytes < 0). A request that
// declares 1 GiB and sends a few bytes is a 400 that allocates little.
func TestRunLabeledIgnoresDeclaredLength(t *testing.T) {
	srv := httpd.New(httpd.Config{MaxBodyBytes: -1, RatePerSec: -1})
	req := httptest.NewRequest(http.MethodPost, "/v1/run-labeled", strings.NewReader("short"))
	req.Header.Set("Content-Type", radiobcast.LabelingContentType)
	req.ContentLength = 1 << 30
	rec := httptest.NewRecorder()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)

	var eb client.ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || eb.Error.Code != "bad_request" {
		t.Fatalf("short body declared at 1 GiB: status=%d body=%+v, want 400 bad_request", rec.Code, eb)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("serving a 5-byte body declared at 1 GiB allocated %d bytes", got)
	}
}

func TestSweepStream(t *testing.T) {
	_, _, c := newTestServer(t, httpd.Config{})
	var mu sync.Mutex
	seen := map[int]bool{}
	cells, err := c.Sweep(context.Background(), client.SweepRequest{
		Families:   []string{"path", "grid"},
		Sizes:      []int{16},
		Schemes:    []string{"b", "back"},
		FaultRates: []float64{0, 0.1},
	}, func(cell client.SweepCellResult) error {
		mu.Lock()
		defer mu.Unlock()
		if seen[cell.Index] {
			return fmt.Errorf("cell index %d streamed twice", cell.Index)
		}
		seen[cell.Index] = true
		if cell.FaultRate == 0 && !cell.Verified {
			return fmt.Errorf("fault-free cell %d not verified: %+v", cell.Index, cell)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 1 * 2 * 2; cells != want {
		t.Fatalf("streamed %d cells, want %d", cells, want)
	}
}

func TestSweepValidation(t *testing.T) {
	_, _, c := newTestServer(t, httpd.Config{MaxSweepCells: 10})
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		req      client.SweepRequest
		wantCode string
	}{
		{"empty grid", client.SweepRequest{}, "bad_request"},
		{"unknown scheme", client.SweepRequest{Families: []string{"path"}, Sizes: []int{8}, Schemes: []string{"nope"}}, "unknown_scheme"},
		{"unknown family", client.SweepRequest{Families: []string{"toroid"}, Sizes: []int{8}, Schemes: []string{"b"}}, "bad_request"},
		{"grid too big", client.SweepRequest{Families: []string{"path"}, Sizes: []int{8}, Schemes: []string{"b"}, Repeats: 100}, "limit_exceeded"},
		{"bad fault rate", client.SweepRequest{Families: []string{"path"}, Sizes: []int{8}, Schemes: []string{"b"}, FaultRates: []float64{2}}, "bad_request"},
		{"size below one", client.SweepRequest{Families: []string{"path"}, Sizes: []int{-3}, Schemes: []string{"b"}}, "bad_request"},
		{"size zero", client.SweepRequest{Families: []string{"grid"}, Sizes: []int{8, 0}, Schemes: []string{"b"}}, "bad_request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Sweep(ctx, tc.req, nil)
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.Code != tc.wantCode {
				t.Fatalf("err = %v, want code %q", err, tc.wantCode)
			}
			// Validation failures must 4xx before the stream commits to 200.
			if ae.Status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", ae.Status)
			}
		})
	}
}

// TestSweepSaturation pins the backpressure contract: with every sweep
// slot occupied, the next sweep is refused with 429 + Retry-After instead
// of queueing, and a freed slot makes the identical request succeed.
func TestSweepSaturation(t *testing.T) {
	srv, _, c := newTestServer(t, httpd.Config{MaxConcurrentSweeps: 1})
	release := srv.AcquireSweepSlot()

	small := client.SweepRequest{Families: []string{"path"}, Sizes: []int{8}, Schemes: []string{"b"}}
	_, err := c.Sweep(context.Background(), small, nil)
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("saturated sweep: err = %v, want *APIError", err)
	}
	if ae.Status != http.StatusTooManyRequests || ae.Code != "saturated" {
		t.Fatalf("saturated sweep: %+v", ae)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("saturated sweep carries no Retry-After: %+v", ae)
	}

	release()
	if _, err := c.Sweep(context.Background(), small, nil); err != nil {
		t.Fatalf("sweep after slot freed: %v", err)
	}
}

func TestRateLimitEndpointRejects(t *testing.T) {
	// Tiny refill rate, burst of 3: the 4th rapid request must be turned
	// away with 429, a rate_limited code and a Retry-After hint.
	_, _, c := newTestServer(t, httpd.Config{RatePerSec: 0.01, RateBurst: 3})
	ctx := context.Background()
	var limited *client.APIError
	for i := 0; i < 6; i++ {
		if err := c.Ready(ctx); err != nil {
			t.Fatalf("readyz must not be rate limited: %v", err)
		}
		_, err := c.Run(ctx, client.RunRequest{Graph: client.GraphSpec{Family: "path", N: 8}, Scheme: "b"})
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Code == "rate_limited" {
			limited = ae
			break
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if limited == nil {
		t.Fatal("6 rapid requests against burst 3 never hit the rate limit")
	}
	if limited.Status != http.StatusTooManyRequests || limited.RetryAfter < time.Second {
		t.Fatalf("rate-limited response: %+v", limited)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, httpd.Config{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Run(ctx, client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 16}, Scheme: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Run(ctx, client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 16}, Scheme: "nope"}); err == nil {
		t.Fatal("expected unknown-scheme error")
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`radiobcastd_requests_total{endpoint="run",code="200"} 3`,
		`radiobcastd_requests_total{endpoint="run",code="400"} 1`,
		`radiobcastd_session_cache_hits_total 2`,
		`radiobcastd_session_cache_misses_total 1`,
		`radiobcastd_session_cache_entries 1`,
		`radiobcastd_in_flight{endpoint="run"} 0`,
		`radiobcastd_sweep_slots 2`,
		`radiobcastd_draining 0`,
		`# TYPE radiobcastd_requests_total counter`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if !strings.Contains(text, `radiobcastd_request_seconds_count{endpoint="run"} 4`) {
		t.Errorf("latency summary missing or wrong count:\n%s", text)
	}
}

// TestConcurrentRuns drives /v1/run from many clients at once against a
// cache-warm Session — the steady serving state — and is the test the
// -race CI job leans on.
func TestConcurrentRuns(t *testing.T) {
	srv, _, c := newTestServer(t, httpd.Config{})
	ctx := context.Background()
	warm := client.RunRequest{Graph: client.GraphSpec{Family: "grid", N: 64}, Scheme: "b"}
	if _, err := c.Run(ctx, warm); err != nil {
		t.Fatal(err)
	}
	const clients, runs = 8, 5
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < runs; j++ {
				out, err := c.Run(ctx, warm)
				if err != nil {
					t.Errorf("concurrent run: %v", err)
					return
				}
				if !out.Verified {
					t.Errorf("concurrent run not verified: %+v", out)
					return
				}
			}
		}()
	}
	wg.Wait()
	if hits := srv.Session().CacheHits(); hits < clients*runs {
		t.Fatalf("cache hits = %d after %d cache-warm runs", hits, clients*runs)
	}
}

// TestConcurrentRunsShareFamilyGraph sends clean, rate-jammed and churn
// /v1/run requests for one family spec at once. All of them run on the
// Session's one cached graph; churn must mutate a clone of it, so the
// shared graph is structurally unchanged afterwards. Run under -race.
func TestConcurrentRunsShareFamilyGraph(t *testing.T) {
	srv, _, c := newTestServer(t, httpd.Config{})
	ctx := context.Background()
	spec := client.GraphSpec{Family: "grid", N: 64}
	net, err := srv.Session().Family(spec.Family, spec.N)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	fp, m := g.Fingerprint(), g.M()
	reqs := []client.RunRequest{
		{Graph: spec, Scheme: "b"},
		{Graph: spec, Scheme: "b", Fault: &radiobcast.FaultSpec{Model: radiobcast.FaultModelRate, Rate: 0.1}},
		{Graph: spec, Scheme: "b", Fault: &radiobcast.FaultSpec{
			Model:  radiobcast.FaultModelChurn,
			Events: []radiobcast.ChurnEvent{{Round: 2, U: 0, V: g.Neighbors(0)[0]}},
		}},
	}
	var wg sync.WaitGroup
	for i := 0; i < 4*len(reqs); i++ {
		req := reqs[i%len(reqs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := c.Run(ctx, req)
			if err != nil {
				t.Errorf("run (fault %+v): %v", req.Fault, err)
				return
			}
			if req.Fault == nil && !out.Verified {
				t.Errorf("clean run not verified: %+v", out)
			}
		}()
	}
	wg.Wait()
	if again, _ := srv.Session().Family(spec.Family, spec.N); again.Graph != g {
		t.Fatal("requests did not share the cached graph")
	}
	// Clone rebuilds the fingerprint from the adjacency itself, where the
	// cached one would survive an in-place mutation that skipped it.
	if g.M() != m || g.Fingerprint() != fp || g.Clone().Fingerprint() != fp {
		t.Fatal("concurrent requests mutated the shared graph")
	}
}
