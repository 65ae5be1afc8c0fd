// Package monitor exposes the storage server's runtime counters over HTTP —
// /healthz for liveness, /stats for a JSON snapshot, /metrics for a
// plain-text listing — so a deployed sophon-server can be observed like any
// production storage service.
package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/storage"
)

// Server wires storage counters into an HTTP mux. It can watch several
// storage servers at once (one per shard of a sharded deployment): /stats
// reports both the aggregate and a per-server breakdown, including the live
// in-flight-request and open-connection gauges.
type Server struct {
	sources   []*storage.Counters
	start     time.Time
	admission *storage.AdmissionController

	mu       sync.Mutex
	listener net.Listener
	httpSrv  *http.Server
	closed   bool
}

// NewMulti builds a monitor over several storage servers' counters — one
// entry per shard, in shard order.
func NewMulti(counters ...*storage.Counters) *Server {
	return &Server{sources: counters, start: time.Now()}
}

// WatchAdmission attaches the shared admission controller so /stats and
// /metrics report the in-flight byte budget, queue depth, and shed-load
// counters; call before serving.
func (s *Server) WatchAdmission(a *storage.AdmissionController) *Server {
	s.admission = a
	return s
}

// statsSnapshot is the JSON shape of /stats. The top-level fields aggregate
// across every watched server; PerServer breaks them out per shard.
type statsSnapshot struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	SamplesServed    uint64  `json:"samples_served"`
	OpsExecuted      uint64  `json:"ops_executed"`
	BytesSent        uint64  `json:"bytes_sent"`
	ServerCPUNanos   uint64  `json:"server_cpu_nanos"`
	InFlightRequests int64   `json:"in_flight_requests"`
	OpenConnections  int64   `json:"open_connections"`
	// ShedLoad sums requests every watched server rejected with a
	// retry-after because admission was saturated.
	ShedLoad uint64 `json:"shed_load"`
	// PrefixServed / PrefixBytesSaved sum raw fetches answered from the
	// progressive fast path (a stored-container prefix sliced in place of
	// the full object) and the wire bytes that avoided.
	PrefixServed     uint64 `json:"prefix_served"`
	PrefixBytesSaved uint64 `json:"prefix_bytes_saved"`
	// PlaneBytes sums the decoded planes every watched store holds.
	PlaneBytes uint64                  `json:"plane_bytes"`
	Admission  *storage.AdmissionStats `json:"admission,omitempty"`
	PerServer  []serverSnapshot        `json:"per_server,omitempty"`
}

// serverSnapshot is one storage server's slice of /stats.
type serverSnapshot struct {
	Server           int    `json:"server"`
	SamplesServed    uint64 `json:"samples_served"`
	OpsExecuted      uint64 `json:"ops_executed"`
	BytesSent        uint64 `json:"bytes_sent"`
	ServerCPUNanos   uint64 `json:"server_cpu_nanos"`
	InFlightRequests int64  `json:"in_flight_requests"`
	OpenConnections  int64  `json:"open_connections"`
	ShedLoad         uint64 `json:"shed_load"`
	PrefixServed     uint64 `json:"prefix_served"`
	PrefixBytesSaved uint64 `json:"prefix_bytes_saved"`
	PlaneBytes       uint64 `json:"plane_bytes"`
}

func (s *Server) snapshot() statsSnapshot {
	out := statsSnapshot{UptimeSeconds: time.Since(s.start).Seconds()}
	for i, c := range s.sources {
		one := serverSnapshot{
			Server:           i,
			SamplesServed:    c.SamplesServed.Load(),
			OpsExecuted:      c.OpsExecuted.Load(),
			BytesSent:        c.BytesSent.Load(),
			ServerCPUNanos:   c.CPUNanos.Load(),
			InFlightRequests: c.InFlight.Load(),
			OpenConnections:  c.Connections.Load(),
			ShedLoad:         c.ShedLoad.Load(),
			PrefixServed:     c.PrefixServed.Load(),
			PrefixBytesSaved: c.PrefixBytesSaved.Load(),
			PlaneBytes:       c.PlaneBytes.Load(),
		}
		out.SamplesServed += one.SamplesServed
		out.OpsExecuted += one.OpsExecuted
		out.BytesSent += one.BytesSent
		out.ServerCPUNanos += one.ServerCPUNanos
		out.InFlightRequests += one.InFlightRequests
		out.OpenConnections += one.OpenConnections
		out.ShedLoad += one.ShedLoad
		out.PrefixServed += one.PrefixServed
		out.PrefixBytesSaved += one.PrefixBytesSaved
		out.PlaneBytes += one.PlaneBytes
		if len(s.sources) > 1 {
			out.PerServer = append(out.PerServer, one)
		}
	}
	if s.admission != nil {
		st := s.admission.Stats()
		out.Admission = &st
	}
	return out
}

// handler returns the HTTP mux serving the three endpoints.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap := s.snapshot()
		fmt.Fprintf(w, "sophon_uptime_seconds %.1f\n", snap.UptimeSeconds)
		fmt.Fprintf(w, "sophon_samples_served %d\n", snap.SamplesServed)
		fmt.Fprintf(w, "sophon_ops_executed %d\n", snap.OpsExecuted)
		fmt.Fprintf(w, "sophon_bytes_sent %d\n", snap.BytesSent)
		fmt.Fprintf(w, "sophon_server_cpu_nanos %d\n", snap.ServerCPUNanos)
		fmt.Fprintf(w, "sophon_in_flight_requests %d\n", snap.InFlightRequests)
		fmt.Fprintf(w, "sophon_open_connections %d\n", snap.OpenConnections)
		fmt.Fprintf(w, "sophon_shed_load_total %d\n", snap.ShedLoad)
		fmt.Fprintf(w, "sophon_prefix_served_total %d\n", snap.PrefixServed)
		fmt.Fprintf(w, "sophon_prefix_bytes_saved_total %d\n", snap.PrefixBytesSaved)
		for _, ps := range snap.PerServer {
			fmt.Fprintf(w, "sophon_server_samples_served{server=\"%d\"} %d\n", ps.Server, ps.SamplesServed)
			fmt.Fprintf(w, "sophon_server_in_flight_requests{server=\"%d\"} %d\n", ps.Server, ps.InFlightRequests)
			fmt.Fprintf(w, "sophon_server_open_connections{server=\"%d\"} %d\n", ps.Server, ps.OpenConnections)
		}
		if ad := snap.Admission; ad != nil {
			fmt.Fprintf(w, "sophon_admission_in_flight_bytes %d\n", ad.InFlightBytes)
			fmt.Fprintf(w, "sophon_admission_max_in_flight_bytes %d\n", ad.MaxInFlightBytes)
			fmt.Fprintf(w, "sophon_admission_queue_depth %d\n", ad.QueueDepth)
			fmt.Fprintf(w, "sophon_admission_admitted_total %d\n", ad.Admitted)
			fmt.Fprintf(w, "sophon_admission_queued_total %d\n", ad.Queued)
			fmt.Fprintf(w, "sophon_admission_shed_total %d\n", ad.Shed)
		}
	})
	return mux
}

// ListenAndServe starts the HTTP endpoint on addr and returns the bound
// address (useful with ":0").
func (s *Server) ListenAndServe(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("monitor: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return "", errors.New("monitor: closed")
	}
	s.listener = l
	s.httpSrv = &http.Server{Handler: s.handler()}
	s.mu.Unlock()
	go s.httpSrv.Serve(l)
	return l.Addr().String(), nil
}

// Close stops the HTTP endpoint; idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.httpSrv != nil {
		return s.httpSrv.Close()
	}
	return nil
}
