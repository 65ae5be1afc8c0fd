package monitor

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestMonitorVirtualClockUptime: the injected clock drives uptime, so a
// monitor inside a simulation reports virtual time.
func TestMonitorVirtualClockUptime(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	m := NewMulti().UseClock(clock)
	clock.Advance(90 * time.Second)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.UptimeSeconds != 90 {
		t.Fatalf("uptime %v under virtual clock, want 90", got.UptimeSeconds)
	}
}
