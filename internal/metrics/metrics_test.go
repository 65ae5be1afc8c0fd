package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-3)
	c.Add(0)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10 (negatives ignored)", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("counter = %d, want 16000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	g.Add(-2)
	if got := g.Value(); got != 40 {
		t.Fatalf("gauge = %d, want 40", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 || h.Stats() != (HistogramStats{}) {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	for _, tc := range []struct {
		name                string
		in                  []time.Duration
		sum, min, max, mean time.Duration
	}{
		{name: "seconds", in: []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second},
			sum: 10 * time.Second, min: time.Second, max: 4 * time.Second, mean: 2500 * time.Millisecond},
		// The maximum is kept exactly, not to bucket resolution.
		{name: "exact max", in: []time.Duration{123456789, time.Millisecond},
			sum: 124456789, min: time.Millisecond, max: 123456789, mean: 62228394},
		{name: "negative clamps to zero", in: []time.Duration{-time.Second}},
	} {
		var h Histogram
		for _, d := range tc.in {
			h.Observe(d)
		}
		st := h.Stats()
		if h.Count() != uint64(len(tc.in)) || st.Count != int64(len(tc.in)) {
			t.Errorf("%s: count = %d / %d, want %d", tc.name, h.Count(), st.Count, len(tc.in))
		}
		if st.Sum != tc.sum.Seconds() || st.Min != tc.min.Seconds() || st.Max != tc.max.Seconds() {
			t.Errorf("%s: sum/min/max = %v/%v/%v s, want %v/%v/%v", tc.name, st.Sum, st.Min, st.Max, tc.sum, tc.min, tc.max)
		}
		if h.Mean() != tc.mean || st.Mean != tc.sum.Seconds()/float64(len(tc.in)) {
			t.Errorf("%s: mean = %v / %v s, want %v", tc.name, h.Mean(), st.Mean, tc.mean)
		}
		if h.Max() != tc.max || h.Quantile(1) != tc.max {
			t.Errorf("%s: max = %v, q1 = %v, want %v exactly", tc.name, h.Max(), h.Quantile(1), tc.max)
		}
		if got := h.Quantile(0.5); got < tc.min || got > tc.max || st.P50 != got.Seconds() {
			t.Errorf("%s: p50 = %v / %v s, outside [%v, %v]", tc.name, got, st.P50, tc.min, tc.max)
		}
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Quantile(0); got != time.Millisecond {
		t.Fatalf("q0 = %v, want exact min", got)
	}
	if got := h.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("q1 = %v, want exact max", got)
	}
	if p50 := h.Quantile(0.5); p50 < 50*time.Millisecond || p50 > 52*time.Millisecond {
		t.Fatalf("p50 = %v, want 51ms to bucket resolution", p50)
	}
}

// Property: for any set of observations, every quantile lies within
// [min, max] and quantiles are monotone in q.
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, r := range raw {
			h.Observe(time.Duration(r%1e6)*time.Microsecond + 500)
		}
		lo, hi := h.Quantile(0), h.Max()
		prev := time.Duration(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < lo || v > hi {
				return false
			}
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// 64 sub-buckets per power of two bound a quantile's relative error by
// 1/128 at the bucket midpoint; 2 % leaves room for the rank falling on a
// neighbouring sample.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		n    int
		draw func(i int) time.Duration
	}{
		{"uniform 1ms..1s", 20000, func(int) time.Duration {
			return time.Duration((rng.Float64()*1000 + 1) * float64(time.Millisecond))
		}},
		// Log-uniform across 1µs..1s: the shape fetch latencies take under
		// mixed cache / offload / raw classes.
		{"log-uniform 1us..1s", 50000, func(int) time.Duration {
			return time.Duration(math.Exp(rng.Float64()*math.Log(1e9/1e3)) * 1e3)
		}},
		// Below 64 ns every value has its own bucket: quantiles are exact.
		{"linear region", histSub, func(i int) time.Duration { return time.Duration(i) }},
	} {
		var h Histogram
		vals := make([]float64, tc.n)
		for i := range vals {
			d := tc.draw(i)
			vals[i] = float64(d)
			h.Observe(d)
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := vals[int(q*float64(tc.n))]
			got := float64(h.Quantile(q))
			if math.Abs(got-exact) > 0.02*exact {
				t.Errorf("%s: q%.3f = %.0f ns, exact %.0f ns", tc.name, q, got, exact)
			}
		}
		if h.Count() != uint64(tc.n) {
			t.Errorf("%s: count = %d, want %d", tc.name, h.Count(), tc.n)
		}
	}
}

// bucketMid(bucketFor(v)) stays within the sub-bucket resolution of v over
// the whole range, and is v itself in the linear region.
func TestHistogramBucketRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxUint32, math.MaxInt64} {
		got := bucketMid(bucketFor(v))
		if v < histSub && got != v {
			t.Fatalf("bucketMid(bucketFor(%d)) = %d in the linear region", v, got)
		}
		rel := math.Abs(float64(got)-float64(v)) / math.Max(float64(v), 1)
		if rel > 1.0/histSub {
			t.Fatalf("bucketMid(bucketFor(%d)) = %d, rel err %.4f > %.4f", v, got, rel, 1.0/histSub)
		}
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not memoized")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not memoized")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram not memoized")
	}
}

func TestRegistrySnapshotAndString(t *testing.T) {
	r := NewRegistry()
	r.Counter("bytes").Add(1024)
	r.Gauge("inflight").Set(3)
	r.Histogram("latency").Observe(250 * time.Millisecond)
	s := r.Snapshot()
	if s.Counters["bytes"] != 1024 {
		t.Fatalf("snapshot counter = %d", s.Counters["bytes"])
	}
	if s.Gauges["inflight"] != 3 {
		t.Fatalf("snapshot gauge = %d", s.Gauges["inflight"])
	}
	if s.Histograms["latency"].Count != 1 {
		t.Fatalf("snapshot hist count = %d", s.Histograms["latency"].Count)
	}
	out := s.String()
	for _, want := range []string{"counter bytes = 1024", "gauge inflight = 3", "hist latency count=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot string missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Duration(j))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
}

// A snapshot's statistics for one histogram come from one instant: with
// every observation equal, Sum is Count times that value in any consistent
// view, and larger when Count was read before later observations landed.
func TestSnapshotHistogramIsOneInstant(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(time.Millisecond)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		st := r.Snapshot().Histograms["h"]
		if want := (time.Duration(st.Count) * time.Millisecond).Seconds(); st.Sum != want {
			t.Errorf("snapshot %d: count %d with sum %v s, want %v", i, st.Count, st.Sum, want)
			break
		}
	}
	close(stop)
	wg.Wait()
}
