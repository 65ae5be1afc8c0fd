package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
)

func testMonitor() (*Server, *storage.Counters, *metrics.Registry) {
	reg := metrics.NewRegistry()
	counters := &storage.Counters{}
	return New(reg, counters), counters, reg
}

func TestHealthz(t *testing.T) {
	m, _, _ := testMonitor()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestStatsJSON(t *testing.T) {
	m, counters, reg := testMonitor()
	counters.SamplesServed.Add(5)
	counters.BytesSent.Add(1024)
	reg.Counter("fetches").Add(5)
	reg.Histogram("latency").Observe(500 * time.Millisecond)

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
	if got["samples_served"].(float64) != 5 {
		t.Fatalf("samples_served = %v", got["samples_served"])
	}
	if got["bytes_sent"].(float64) != 1024 {
		t.Fatalf("bytes_sent = %v", got["bytes_sent"])
	}
	counters2 := got["counters"].(map[string]interface{})
	if counters2["fetches"].(float64) != 5 {
		t.Fatalf("registry counter missing: %v", counters2)
	}
	// One 500 ms observation: /stats reports seconds, and every statistic of
	// a single-valued histogram is that value exactly.
	lat, ok := got["histograms"].(map[string]interface{})["latency"].(map[string]interface{})
	if !ok {
		t.Fatal("histogram missing")
	}
	if lat["count"].(float64) != 1 || lat["mean"].(float64) != 0.5 || lat["p50"].(float64) != 0.5 || lat["p99"].(float64) != 0.5 {
		t.Fatalf("latency histogram = %v, want count 1 and 0.5 s throughout", lat)
	}
}

func TestMetricsText(t *testing.T) {
	m, counters, reg := testMonitor()
	counters.OpsExecuted.Add(7)
	reg.Gauge("inflight").Set(2)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{"sophon_ops_executed 7", "sophon_uptime_seconds", "gauge inflight = 2"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func TestNilSources(t *testing.T) {
	m := New(nil, nil)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stats with nil sources: %d", resp.StatusCode)
	}
}

func TestListenAndServeLifecycle(t *testing.T) {
	m, counters, _ := testMonitor()
	counters.SamplesServed.Add(1)
	addr, err := m.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("endpoint alive after Close")
	}
	if _, err := m.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Fatal("ListenAndServe after Close succeeded")
	}
}
