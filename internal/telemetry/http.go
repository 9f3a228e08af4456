package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"time"
)

// MetricsHandler serves the registry in the Prometheus text exposition
// format — the live counterpart of reproduce's file-based -metrics-dir
// dumps. slicekvsd's sidecar mounts it at /metrics. Safe for a nil
// registry (serves an empty exposition).
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// The write failed mid-body; the status line is already gone,
			// so there is nothing useful left to send.
			return
		}
	})
}

// MetricsServer is a live metrics endpoint bound to a TCP address.
type MetricsServer struct {
	srv  *http.Server
	addr net.Addr
	errc chan error
}

// StartMetricsServer binds addr (host:port; :0 picks a free port) and
// serves handler on it in a background goroutine. Binding errors surface
// immediately; serve-loop errors are retrievable from Close.
func StartMetricsServer(addr string, handler http.Handler) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: metrics listener: %w", err)
	}
	s := &MetricsServer{
		srv:  &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		addr: ln.Addr(),
		errc: make(chan error, 1),
	}
	go func() {
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.errc <- err
		}
		close(s.errc)
	}()
	return s, nil
}

// Addr reports the bound address (useful with :0).
func (s *MetricsServer) Addr() net.Addr { return s.addr }

// Close stops the server immediately and reports any serve-loop error.
func (s *MetricsServer) Close() error {
	if err := s.srv.Close(); err != nil {
		return err
	}
	return <-s.errc
}
