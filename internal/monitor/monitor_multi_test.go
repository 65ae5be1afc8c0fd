package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestStatsGauges: the live in-flight and open-connection gauges must show
// up in /stats even for a single watched server.
func TestStatsGauges(t *testing.T) {
	m, counters := testMonitor()
	counters.InFlight.Add(3)
	counters.Connections.Add(2)

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["in_flight_requests"].(float64) != 3 {
		t.Fatalf("in_flight_requests = %v", got["in_flight_requests"])
	}
	if got["open_connections"].(float64) != 2 {
		t.Fatalf("open_connections = %v", got["open_connections"])
	}
	if _, ok := got["per_server"]; ok {
		t.Fatal("per_server breakdown emitted for a single source")
	}
}

// TestStatsMulti: several watched servers aggregate at the top level and
// break out per server.
func TestStatsMulti(t *testing.T) {
	a, b := &storage.Counters{}, &storage.Counters{}
	a.SamplesServed.Add(10)
	a.InFlight.Add(1)
	a.Connections.Add(1)
	b.SamplesServed.Add(4)
	b.BytesSent.Add(256)
	b.InFlight.Add(2)
	m := NewMulti(a, b)

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got statsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.SamplesServed != 14 || got.BytesSent != 256 || got.InFlightRequests != 3 || got.OpenConnections != 1 {
		t.Fatalf("aggregate: %+v", got)
	}
	if len(got.PerServer) != 2 {
		t.Fatalf("per_server has %d entries", len(got.PerServer))
	}
	if got.PerServer[0].Server != 0 || got.PerServer[0].SamplesServed != 10 || got.PerServer[0].InFlightRequests != 1 {
		t.Fatalf("server 0: %+v", got.PerServer[0])
	}
	if got.PerServer[1].Server != 1 || got.PerServer[1].SamplesServed != 4 || got.PerServer[1].BytesSent != 256 {
		t.Fatalf("server 1: %+v", got.PerServer[1])
	}
}

// TestMetricsMulti: /metrics gains the gauge lines and a per-server series.
func TestMetricsMulti(t *testing.T) {
	a, b := &storage.Counters{}, &storage.Counters{}
	a.SamplesServed.Add(6)
	b.InFlight.Add(5)
	m := NewMulti(a, b)

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"sophon_in_flight_requests 5",
		"sophon_open_connections 0",
		`sophon_server_samples_served{server="0"} 6`,
		`sophon_server_in_flight_requests{server="1"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}
