package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	for _, tc := range []struct {
		name           string
		in             []time.Duration
		min, max, mean time.Duration
	}{
		{name: "seconds", in: []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second},
			min: time.Second, max: 4 * time.Second, mean: 2500 * time.Millisecond},
		// The extremes are kept exactly, not to bucket resolution.
		{name: "exact max", in: []time.Duration{123456789, time.Millisecond},
			min: time.Millisecond, max: 123456789, mean: 62228394},
		{name: "negative clamps to zero", in: []time.Duration{-time.Second}},
	} {
		var h Histogram
		for _, d := range tc.in {
			h.Observe(d)
		}
		if h.Count() != uint64(len(tc.in)) {
			t.Errorf("%s: count = %d, want %d", tc.name, h.Count(), len(tc.in))
		}
		if h.Mean() != tc.mean {
			t.Errorf("%s: mean = %v, want %v", tc.name, h.Mean(), tc.mean)
		}
		if h.Quantile(0) != tc.min || h.Max() != tc.max || h.Quantile(1) != tc.max {
			t.Errorf("%s: q0 = %v, max = %v, q1 = %v, want %v and %v exactly", tc.name, h.Quantile(0), h.Max(), h.Quantile(1), tc.min, tc.max)
		}
		if got := h.Quantile(0.5); got < tc.min || got > tc.max {
			t.Errorf("%s: p50 = %v, outside [%v, %v]", tc.name, got, tc.min, tc.max)
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
