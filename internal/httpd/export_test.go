package httpd

import (
	"net/http"

	"radiobcast"
)

// Session returns the daemon's serving Session.
func (s *Server) Session() *radiobcast.Session { return s.sess }

// Handler returns the daemon's routes as one http.Handler.
func (s *Server) Handler() http.Handler { return s.handler }

// AcquireSweepSlot takes one slot of the bounded sweep pool exactly as a
// running sweep would, returning its release func. Test-only: it lets the
// saturation path be exercised deterministically instead of racing a real
// sweep's completion.
func (s *Server) AcquireSweepSlot() func() {
	s.sweepSem <- struct{}{}
	return func() { <-s.sweepSem }
}

// HandlerFunc re-exports the route-body signature for test routes.
type HandlerFunc = handlerFunc

// RegisterTestRoute mounts an extra handler behind the daemon's full
// middleware stack (metrics + panic recovery), attributed to the named
// metrics endpoint. Test-only: it lets middleware behavior — panic
// recovery in particular — be exercised without teaching a production
// handler to fail on demand.
func (s *Server) RegisterTestRoute(pattern, endpoint string, h HandlerFunc) {
	s.mux.Handle(pattern, s.instrumented(endpoint, h))
}

// PanicsTotal reads the recovered-panic counter.
func (s *Server) PanicsTotal() uint64 { return s.panics.Load() }
