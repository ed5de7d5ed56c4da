// Package serve exposes a running live execution over HTTP (batchsim
// -serve): the operational scrape surface of the telemetry subsystem
// (DESIGN.md §14).
//
//	/metrics      Prometheus text exposition (obs.Registry.WritePrometheus)
//	/healthz      liveness: "ok" (200) while the server is up
//	/slo          JSON snapshot of the run's service state
//	/debug/pprof  net/http/pprof profiles of the live process
//
// The server owns no instruments: callers register render callbacks
// (AddMetrics, SetSLO) whose implementations must be safe to run
// concurrently with the workload — in practice, renders of an obs.Registry
// (which read stored values, never run state) and snapshots taken under
// the caller's own locks.
package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is one scrape endpoint. Create with New, register sources, then
// Start (or mount Handler in a test server).
type Server struct {
	mu      sync.Mutex
	metrics []func(w http.ResponseWriter) error
	slo     func() any

	srv *http.Server
	lis net.Listener
}

// New returns a server with no sources: /metrics renders empty and /slo
// returns null.
func New() *Server { return &Server{} }

// AddMetrics registers one /metrics renderer (typically a closure over
// obs.Registry.WritePrometheus). Renderers run in registration order and
// their output is concatenated.
func (s *Server) AddMetrics(fn func(w http.ResponseWriter) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = append(s.metrics, fn)
}

// SetSLO registers the /slo snapshot source; the returned value is rendered
// as indented JSON per request.
func (s *Server) SetSLO(fn func() any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slo = fn
}

// Handler returns the full route table, including pprof. The pprof handlers
// are mounted explicitly (not via the net/http/pprof DefaultServeMux side
// effect) so the server composes with tests and with processes that never
// touch the default mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	fns := append([]func(http.ResponseWriter) error(nil), s.metrics...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, fn := range fns {
		if err := fn(w); err != nil {
			// Headers are gone; all we can do is cut the response short.
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	src := s.slo
	s.mu.Unlock()
	var v any
	if src != nil {
		v = src()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Start listens on addr (host:port; ":0" picks a free port) and serves in a
// background goroutine. It returns the bound address, so callers can print
// the scrape URL even with an ephemeral port.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	s.mu.Lock()
	s.lis = lis
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	srv := s.srv
	s.mu.Unlock()
	go srv.Serve(lis) //nolint:errcheck // Serve always returns on Close
	return lis.Addr().String(), nil
}

// Close stops the listener. In-flight requests are cut, which is fine for a
// scrape endpoint.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}
