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

func testMonitor() (*Server, *storage.Counters) {
	counters := &storage.Counters{}
	return NewMulti(counters), counters
}

func TestHealthz(t *testing.T) {
	m, _ := testMonitor()
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
	m, counters := testMonitor()
	counters.SamplesServed.Add(5)
	counters.BytesSent.Add(1024)
	counters.ObservePlanVersion(2)
	counters.ObservePlanVersion(1) // stale stamp during a plan swap

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
	// The wire-observed plan version ratchets; the older stamp is counted.
	if got["plan_version"].(float64) != 2 || got["plan_regressions"].(float64) != 1 {
		t.Fatalf("plan_version %v regressions %v, want 2 and 1", got["plan_version"], got["plan_regressions"])
	}
	if _, ok := got["admission"]; ok {
		t.Fatal("admission block emitted with no controller watched")
	}
}

func TestMetricsText(t *testing.T) {
	m, counters := testMonitor()
	counters.OpsExecuted.Add(7)
	counters.ObservePlanVersion(1)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{"sophon_ops_executed 7", "sophon_uptime_seconds", "sophon_plan_version 1", "sophon_plan_regressions 0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func TestNilSources(t *testing.T) {
	m := NewMulti()
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
	m, counters := testMonitor()
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
