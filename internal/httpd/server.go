// Package httpd is radiobcastd's serving layer: an HTTP/JSON daemon
// wrapping one shared radiobcast.Session — the paper's central monitor
// with a network face. Labelings travel in the binary wire format
// (radiobcast.LabelingContentType), outcomes as JSON, sweeps as an NDJSON
// stream off Session.Sweep's iterator; the request/response types live in
// the public radiobcast/client package, which is also the typed consumer.
//
// The cross-cutting machinery lives here rather than in handlers:
// per-client token-bucket rate limiting, a bounded semaphore on
// concurrent sweeps (saturation answers 429 + Retry-After instead of
// queueing unboundedly), request size and round limits, Prometheus-text
// metrics, and graceful drain — on shutdown readiness flips to 503,
// in-flight runs finish under a deadline through the facade's context
// plumbing, then the listener closes and the Session drains.
package httpd

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"radiobcast"
)

// Config tunes a Server. The zero value serves with the documented
// defaults; set a field negative (where meaningful) to disable the
// corresponding guard.
type Config struct {
	// Addr is the listen address of ListenAndServe (default ":8080").
	Addr string
	// Session is the shared serving object; nil means "create one".
	Session *radiobcast.Session

	// MaxBodyBytes bounds every request body (default 8 MiB).
	MaxBodyBytes int64
	// MaxGraphN bounds the node count of any requested or uploaded graph
	// (default 1 << 20).
	MaxGraphN int
	// MaxRounds bounds a request's max_rounds override (default 1 << 20).
	MaxRounds int
	// MaxSweepCells bounds a sweep request's grid size (default 65536).
	MaxSweepCells int

	// MaxConcurrentSweeps bounds the sweeps running at once; a saturated
	// pool answers 429 + Retry-After (default 2).
	MaxConcurrentSweeps int
	// SweepWorkers is the worker-pool size of each sweep (default 0 =
	// GOMAXPROCS). The client does not get a say: the server owns its CPU
	// budget.
	SweepWorkers int

	// RatePerSec and RateBurst shape the per-client token bucket over the
	// /v1/ endpoints (defaults 50 and 100; RatePerSec < 0 disables).
	RatePerSec float64
	RateBurst  int

	// RequestTimeout bounds each non-streaming /v1/ request (label, run,
	// run-labeled) through the request context; 0 means no limit. Sweeps
	// are exempt — they stream for as long as the grid takes, bounded by
	// MaxSweepCells and client disconnect.
	RequestTimeout time.Duration

	// DrainTimeout bounds the graceful-drain phase of Serve: how long
	// in-flight requests get to finish after shutdown begins before their
	// contexts are cancelled (default 10s).
	DrainTimeout time.Duration

	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.Addr == "" {
		d.Addr = ":8080"
	}
	if d.MaxBodyBytes == 0 {
		d.MaxBodyBytes = 8 << 20
	}
	if d.MaxGraphN == 0 {
		d.MaxGraphN = 1 << 20
	}
	if d.MaxRounds == 0 {
		d.MaxRounds = 1 << 20
	}
	if d.MaxSweepCells == 0 {
		d.MaxSweepCells = 65536
	}
	if d.MaxConcurrentSweeps == 0 {
		d.MaxConcurrentSweeps = 2
	}
	if d.RatePerSec == 0 {
		d.RatePerSec = 50
	}
	if d.RateBurst == 0 {
		d.RateBurst = 100
	}
	if d.DrainTimeout == 0 {
		d.DrainTimeout = 10 * time.Second
	}
	if d.Logf == nil {
		d.Logf = func(string, ...any) {}
	}
	return d
}

// Server is the daemon. Construct with New; Handler serves its routes
// (httptest-friendly), ListenAndServe runs the full lifecycle including
// graceful drain.
type Server struct {
	cfg      Config
	sess     *radiobcast.Session
	metrics  *metrics
	limiter  *rateLimiter // nil = unlimited
	sweepSem chan struct{}
	draining atomic.Bool
	panics   atomic.Uint64
	mux      *http.ServeMux
	handler  http.Handler
}

// New builds a Server from cfg (see Config for the defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sess:     cfg.Session,
		metrics:  newMetrics([]string{"label", "run", "run_labeled", "sweep", "healthz", "readyz", "metrics"}),
		sweepSem: make(chan struct{}, cfg.MaxConcurrentSweeps),
	}
	if s.sess == nil {
		s.sess = radiobcast.NewSession()
	}
	if cfg.RatePerSec > 0 {
		s.limiter = newRateLimiter(cfg.RatePerSec, cfg.RateBurst)
	}
	mux := http.NewServeMux()
	s.mux = mux
	mux.Handle("POST /v1/label", s.v1(http.MethodPost, "label", s.handleLabel))
	mux.Handle("POST /v1/run", s.v1(http.MethodPost, "run", s.handleRun))
	mux.Handle("POST /v1/run-labeled", s.v1(http.MethodPost, "run_labeled", s.handleRunLabeled))
	mux.Handle("POST /v1/sweep", s.v1(http.MethodPost, "sweep", s.handleSweep))
	mux.Handle("GET /healthz", s.instrumented("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrumented("readyz", s.handleReadyz))
	mux.Handle("GET /metrics", s.instrumented("metrics", s.handleMetrics))
	s.handler = mux
	return s
}

// StartDrain flips the daemon into draining mode: /readyz answers 503 so
// load balancers stop routing here, and new /v1/ requests are refused
// with code "draining" while in-flight ones continue. Serve calls it on
// ctx cancellation; tests call it directly.
func (s *Server) StartDrain() { s.draining.Store(true) }

// ListenAndServe listens on cfg.Addr and serves until ctx is cancelled,
// then drains gracefully (see Serve).
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve runs the daemon on ln until ctx is cancelled, then executes the
// drain sequence: StartDrain (readiness off, new work refused) → wait up
// to DrainTimeout for in-flight requests → cancel surviving request
// contexts (the engine stops within one round; handlers flush partial
// NDJSON and return) → close the listener → drain the Session. A clean
// drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	hs := &http.Server{
		Handler:           s.handler,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	s.cfg.Logf("radiobcastd: serving on %s", ln.Addr())

	select {
	case err := <-serveErr:
		return err // listener died on its own — nothing to drain
	case <-ctx.Done():
	}

	s.StartDrain()
	s.cfg.Logf("radiobcastd: draining (deadline %s)", s.cfg.DrainTimeout)
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancelShutdown()
	err := hs.Shutdown(shutdownCtx)
	if err != nil {
		// The drain deadline passed with requests still running. Cancel
		// their contexts — the facade checks between engine rounds, so
		// every run stops promptly and its handler returns — then give
		// the flushes a moment before closing connections outright.
		s.cfg.Logf("radiobcastd: drain deadline exceeded, cancelling in-flight runs")
		baseCancel()
		hardCtx, cancelHard := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancelHard()
		if err = hs.Shutdown(hardCtx); err != nil {
			err = hs.Close()
		}
	}
	<-serveErr // reap hs.Serve (returns http.ErrServerClosed)

	closeCtx, cancelClose := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancelClose()
	if cerr := s.sess.Close(closeCtx); cerr != nil && err == nil {
		err = fmt.Errorf("draining session: %w", cerr)
	}
	if err == nil {
		s.cfg.Logf("radiobcastd: drained cleanly")
	}
	return err
}

// handlerFunc is a route body: it returns the response status for the
// metrics layer (handlers that already wrote a status return it).
type handlerFunc func(w http.ResponseWriter, r *http.Request) int

// v1 wraps an API endpoint with the daemon's cross-cutting layers, outer
// to inner: drain refusal, per-client rate limit, request timeout, body
// size cap, metrics.
func (s *Server) v1(method, name string, h handlerFunc) http.Handler {
	return s.instrumented(name, func(w http.ResponseWriter, r *http.Request) int {
		if s.draining.Load() {
			w.Header().Set("Connection", "close")
			return writeError(w, http.StatusServiceUnavailable, "draining", "daemon is draining; retry against another replica")
		}
		if s.limiter != nil {
			if ok, wait := s.limiter.allow(clientKey(r.RemoteAddr)); !ok {
				w.Header().Set("Retry-After", retryAfterSeconds(wait))
				return writeError(w, http.StatusTooManyRequests, "rate_limited",
					fmt.Sprintf("per-client rate limit exceeded; retry in %s", wait.Round(time.Millisecond)))
			}
		}
		if s.cfg.RequestTimeout > 0 && name != "sweep" {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.cfg.MaxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		return h(w, r)
	})
}

// instrumented is the metrics and panic-recovery layer every route (API
// or operational) passes through. A panicking handler must not take the
// daemon down or leave its request unanswered: the panic is logged and
// counted (radiobcastd_panics_total), and — unless the handler already
// committed a response — the client gets the canonical 500 body with
// code "internal". Serving continues.
func (s *Server) instrumented(name string, h handlerFunc) http.Handler {
	ep := s.metrics.endpoint(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep.inFlight.Add(1)
		start := time.Now()
		tw := &trackingWriter{ResponseWriter: w}
		code := func() (code int) {
			defer func() {
				if p := recover(); p != nil {
					s.panics.Add(1)
					s.cfg.Logf("radiobcastd: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
					if !tw.wrote {
						writeError(tw, http.StatusInternalServerError, "internal", "internal error")
					}
					code = http.StatusInternalServerError
				}
			}()
			return h(tw, r)
		}()
		ep.inFlight.Add(-1)
		ep.observe(code, time.Since(start))
	})
}

// trackingWriter records whether a response has been committed, so the
// recovery layer knows whether a 500 can still be written. Unwrap keeps
// http.NewResponseController (the sweep stream's flusher) working through
// the wrapper.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

func (t *trackingWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
	return http.StatusOK
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return http.StatusServiceUnavailable
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
	return http.StatusOK
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) int {
	var b strings.Builder
	st := s.sess.Stats()
	boolGauge := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	s.metrics.render(&b, []gauge{
		{"radiobcastd_session_cache_hits_total", "Labeling-cache hits served by the Session.", "counter", float64(st.Hits)},
		{"radiobcastd_session_cache_misses_total", "Labelings computed and cached by the Session.", "counter", float64(st.Misses)},
		{"radiobcastd_session_cache_bypasses_total", "Labelings computed without consulting the cache.", "counter", float64(st.Bypasses)},
		{"radiobcastd_session_cache_evictions_total", "LRU entries discarded to make room.", "counter", float64(st.Evictions)},
		{"radiobcastd_session_cache_coalesced_total", "Requests deduplicated onto an in-flight labeling (single-flight).", "counter", float64(st.Coalesced)},
		{"radiobcastd_session_cache_entries", "Labelings currently cached.", "gauge", float64(st.Entries)},
		{"radiobcastd_session_store_hits_total", "Labelings served from the disk store (including warm-start preloads).", "counter", float64(st.StoreHits)},
		{"radiobcastd_session_store_misses_total", "LRU misses that also missed the disk store.", "counter", float64(st.StoreMisses)},
		{"radiobcastd_session_store_writes_total", "Labelings persisted to the disk store.", "counter", float64(st.StoreWrites)},
		{"radiobcastd_session_store_bytes", "Total size of stored labeling blobs.", "gauge", float64(st.StoreBytes)},
		{"radiobcastd_session_store_entries", "Labelings currently in the disk store.", "gauge", float64(st.StoreEntries)},
		{"radiobcastd_session_store_corrupt_records_total", "Disk-store index records skipped as malformed or failing their checksum.", "counter", float64(st.StoreCorrupt)},
		{"radiobcastd_session_store_quarantined_total", "Disk-store blobs quarantined after a content-hash mismatch.", "counter", float64(st.StoreQuarantined)},
		{"radiobcastd_session_store_evictions_total", "Disk-store blobs evicted by the byte cap.", "counter", float64(st.StoreEvictions)},
		{"radiobcastd_sweeps_in_flight", "Sweeps currently holding a pool slot.", "gauge", float64(len(s.sweepSem))},
		{"radiobcastd_sweep_slots", "Size of the sweep pool.", "gauge", float64(cap(s.sweepSem))},
		{"radiobcastd_draining", "1 once graceful drain has begun.", "gauge", boolGauge(s.draining.Load())},
		{"radiobcastd_panics_total", "Handler panics recovered by the serving layer.", "counter", float64(s.panics.Load())},
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
	return http.StatusOK
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up so "try again in 300ms" never reads as "now".
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// mapError translates a facade error into (status, code): the typed
// sentinels via radiobcast.ErrorCode (all client mistakes → 400, except a
// closing session → 503 and a labeling search that found nothing → 422),
// cancellation → 499-style 503, everything else → 500 without leaking
// internals.
func mapError(err error) (int, string) {
	if code, ok := radiobcast.ErrorCode(err); ok {
		switch code {
		case "session_closed":
			return http.StatusServiceUnavailable, code
		case "no_labeling":
			return http.StatusUnprocessableEntity, code
		default:
			return http.StatusBadRequest, code
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable, "canceled"
	}
	return http.StatusInternalServerError, "internal"
}
