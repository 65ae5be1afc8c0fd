package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestHammerScrapeDuringAdmissionChurn exists for the race detector: it
// scrapes /stats and /metrics over live HTTP while the shared admission
// controller cycles its byte budget and the storage counters tick. Under
// `go test -race ./internal/monitor` any observability path that reads
// admission state without synchronization fails here. The final scrape pins
// the metric names a sophon-server with two shards and admission on emits.
func TestHammerScrapeDuringAdmissionChurn(t *testing.T) {
	adm, err := storage.NewAdmissionController(storage.AdmissionConfig{
		MaxInFlightBytes:  1 << 20,
		MaxQueuePerTenant: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	counters := []*storage.Counters{{}, {}}
	m := NewMulti(counters...).WatchAdmission(adm)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	const churnCycles = 20000
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Admission churn: cycle the byte budget so in-flight bytes, queue
	// depth, and the admitted/shed counters move under the scrapers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := uint64(0); i < churnCycles; i++ {
			release, err := adm.Acquire(i%3, 512<<10, nil)
			if err != nil {
				continue
			}
			release()
		}
	}()

	// Counter churn: the per-shard atomics the aggregate sums over. It counts
	// before it looks at stop: the admission churn can finish before this
	// goroutine is first scheduled, and the final scrape wants its counts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			c := counters[i%len(counters)]
			c.SamplesServed.Add(1)
			c.BytesSent.Add(4096)
			c.InFlight.Add(1)
			c.InFlight.Add(-1)
			c.ShedLoad.Add(1)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// Scrapers: alternate /stats and /metrics over real HTTP until the
	// churn finishes. Every /stats body must stay parseable JSON.
	scrape := func(path string) ([]byte, error) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			path := "/stats"
			if g%2 == 1 {
				path = "/metrics"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, err := scrape(path)
				if err != nil {
					t.Errorf("scrape %s: %v", path, err)
					return
				}
				if path == "/stats" {
					var snap statsSnapshot
					if err := json.Unmarshal(body, &snap); err != nil {
						t.Errorf("unmarshal /stats: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The dust has settled: one final scrape must reflect the admission
	// counters the churn left behind.
	body, err := scrape("/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap statsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Admission == nil || snap.Admission.Admitted == 0 {
		t.Fatalf("final admission snapshot = %+v, want admitted > 0", snap.Admission)
	}
	if snap.ShedLoad == 0 || snap.SamplesServed == 0 {
		t.Fatalf("final counters: shed=%d served=%d, want both > 0", snap.ShedLoad, snap.SamplesServed)
	}

	// Everything a running server emits: 12 totals, 4 per-server gauges, 6
	// admission lines. A new family must retire one (ROADMAP item 3).
	body, err = scrape("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile(`(?m)^sophon_[a-z_]+`).FindAllString(string(body), -1)
	slices.Sort(names)
	if names = slices.Compact(names); len(names) != 22 {
		t.Fatalf("/metrics emits %d sophon_* names, want 22: %v", len(names), names)
	}
}
