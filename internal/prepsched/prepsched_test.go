package prepsched

import (
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
)

func TestClassifierThresholdFromProfile(t *testing.T) {
	// Mean is 212.5µs; default ratio 4 puts the cutoff at 850µs, so only
	// the 1ms outlier is heavy.
	costs := []time.Duration{
		100 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond,
		100 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond,
		100 * time.Microsecond, 1 * time.Millisecond,
	}
	cl, err := newClassifier(costs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cl.BaselineHeavyFrac(), 1.0/8; got != want {
		t.Fatalf("baseline heavy frac = %v, want %v", got, want)
	}
	if c := cl.Classify(100 * time.Microsecond); c != light {
		t.Fatalf("100µs classified %v, want light", c)
	}
	if c := cl.Classify(1 * time.Millisecond); c != heavy {
		t.Fatalf("1ms classified %v, want heavy", c)
	}
	if c := cl.Classify(850 * time.Microsecond); c != heavy {
		t.Fatalf("cost at the threshold classified %v, want heavy", c)
	}
	if c := cl.Classify(850*time.Microsecond - 1); c != light {
		t.Fatalf("cost just below the threshold classified %v, want light", c)
	}
}

func TestClassifierErrors(t *testing.T) {
	if _, err := newClassifier(nil, 0); err == nil {
		t.Fatal("empty profile accepted")
	}
	if _, err := newClassifier([]time.Duration{time.Millisecond}, -1); err == nil {
		t.Fatal("negative ratio accepted")
	}
	for _, ratio := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := newClassifier([]time.Duration{time.Millisecond}, ratio); err == nil {
			t.Fatalf("ratio %v accepted", ratio)
		}
	}
	if _, err := newClassifier([]time.Duration{-time.Millisecond}, 0); err == nil {
		t.Fatal("negative cost accepted")
	}
	if _, err := FromTrace(nil, 0); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestClassifierFromTrace(t *testing.T) {
	tr, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(64), 11)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromTrace(tr, 1) // threshold at the mean: both classes present
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := range tr.Records {
		if cl.Classify(tr.Records[i].TotalTime()) == heavy {
			n++
		}
	}
	if n == 0 || n == tr.N() {
		t.Fatalf("degenerate classification: %d/%d heavy at ratio 1", n, tr.N())
	}
	if got, want := cl.BaselineHeavyFrac(), float64(n)/float64(tr.N()); got != want {
		t.Fatalf("baseline %v disagrees with recount %v", got, want)
	}
}

// TestMetricsNilSafe: a nil and a zero Metrics both snapshot to zero.
func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	if s := m.Snapshot(); s != (MetricsSnapshot{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if s := new(Metrics).Snapshot(); s != (MetricsSnapshot{}) {
		t.Fatalf("zero snapshot = %+v", s)
	}
}

func TestClassString(t *testing.T) {
	if light.String() != "light" || heavy.String() != "heavy" {
		t.Fatalf("class names: %q %q", light, heavy)
	}
}
