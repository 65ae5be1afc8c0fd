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
	if got, want := cl.Threshold(), 850*time.Microsecond; got != want {
		t.Fatalf("threshold = %v, want %v", got, want)
	}
	if got, want := cl.BaselineHeavyFrac(), 1.0/8; got != want {
		t.Fatalf("baseline heavy frac = %v, want %v", got, want)
	}
	if c := cl.Classify(100 * time.Microsecond); c != Light {
		t.Fatalf("100µs classified %v, want light", c)
	}
	if c := cl.Classify(1 * time.Millisecond); c != Heavy {
		t.Fatalf("1ms classified %v, want heavy", c)
	}
	if c := cl.Classify(850 * time.Microsecond); c != Heavy {
		t.Fatalf("cost at the threshold classified %v, want heavy", c)
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
	if cl.Threshold() <= 0 {
		t.Fatalf("threshold = %v, want > 0", cl.Threshold())
	}
	heavy := 0
	for i := range tr.Records {
		if cl.Classify(tr.Records[i].TotalTime()) == Heavy {
			heavy++
		}
	}
	if heavy == 0 || heavy == tr.N() {
		t.Fatalf("degenerate classification: %d/%d heavy at ratio 1", heavy, tr.N())
	}
	if got, want := cl.BaselineHeavyFrac(), float64(heavy)/float64(tr.N()); got != want {
		t.Fatalf("baseline %v disagrees with recount %v", got, want)
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.noteDispatch(Heavy)
	m.noteOwnPop()
	m.noteSteal()
	m.noteStall()
	if s := m.Snapshot(); s != (MetricsSnapshot{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

func TestClassString(t *testing.T) {
	if Light.String() != "light" || Heavy.String() != "heavy" {
		t.Fatalf("class names: %q %q", Light, Heavy)
	}
}
