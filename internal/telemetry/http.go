package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"time"
)

// ExtraHandler is one additional endpoint mounted beside /metrics —
// how subsystems (the alarm engine's /alarms and /timeline) expose
// their views on the same server.
type ExtraHandler struct {
	Pattern string
	Handler http.HandlerFunc
}

// NewHandlerWith returns an http.Handler serving the registry's metrics,
// the tracer's recent traces and the extra endpoints:
//
//	/metrics  Prometheus text exposition format
//	/traces   JSON array of recent completed root spans
//	/healthz  JSON health report; 503 when any registered check fails
//
// reg and tracer may be nil: the corresponding endpoint serves an empty
// (but valid) document.
func NewHandlerWith(reg *Registry, tracer *Tracer, extra []ExtraHandler) http.Handler {
	mux := http.NewServeMux()
	for _, e := range extra {
		mux.HandleFunc(e.Pattern, e.Handler)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		traces := tracer.Recent()
		if traces == nil {
			traces = []SpanSnapshot{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(traces)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		statuses, ok := reg.Health()
		if statuses == nil {
			statuses = []HealthStatus{}
		}
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			OK     bool           `json:"ok"`
			Checks []HealthStatus `json:"checks"`
		}{ok, statuses})
	})
	return mux
}

// Server is a running metrics endpoint.
type Server struct {
	Addr string // actual listen address (resolves ":0")
	srv  *http.Server
	ln   net.Listener
}

// ListenAndServe starts an HTTP server for the registry/tracer on
// addr (e.g. ":9090" or "127.0.0.1:0") and serves in a background
// goroutine until Close.
func ListenAndServe(addr string, reg *Registry, tracer *Tracer) (*Server, error) {
	return ListenAndServeWith(addr, reg, tracer, nil)
}

// ListenAndServeWith is ListenAndServe plus extra endpoints.
func ListenAndServeWith(addr string, reg *Registry, tracer *Tracer, extra []ExtraHandler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           NewHandlerWith(reg, tracer, extra),
		ReadHeaderTimeout: 5 * time.Second,
	}
	s := &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Close shuts the server down immediately.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
