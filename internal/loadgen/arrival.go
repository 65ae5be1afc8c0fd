package loadgen

import (
	"math"
	"math/rand/v2"
	"time"
)

// ArrivalKind selects the open-loop arrival process for a session.
type ArrivalKind int

const (
	// poisson arrivals: independent exponential inter-arrival gaps with
	// mean 1/rate. The classic open-loop model — arrivals keep coming at
	// the offered rate regardless of how slow the server is, which is what
	// exposes queueing collapse (closed-loop generators self-throttle and
	// hide it).
	poisson ArrivalKind = iota
	// Bursty arrivals: geometrically-sized batches of back-to-back
	// requests separated by exponential gaps, preserving the same mean
	// rate but with much heavier short-term peaks. Models synchronized
	// prefetch windows waking up across trainer steps.
	Bursty
)

func (k ArrivalKind) String() string {
	switch k {
	case poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	default:
		return "unknown"
	}
}

// arrivalProc generates the arrival instants for one session from its own
// seeded PCG stream (same idiom as internal/chaos: one PCG per logical
// stream keyed by seed and stream index, so runs are reproducible and
// sessions are independent).
type arrivalProc struct {
	rng   *rand.Rand
	kind  ArrivalKind
	rate  float64 // mean arrivals per second
	burst float64 // mean batch size for Bursty; ignored for Poisson

	pending int // remaining arrivals in the current burst
}

func newArrivalProc(seed uint64, stream uint64, kind ArrivalKind, rate, burst float64) *arrivalProc {
	if burst < 1 {
		burst = 1
	}
	return &arrivalProc{
		rng:   rand.New(rand.NewPCG(seed, stream)),
		kind:  kind,
		rate:  rate,
		burst: burst,
	}
}

// expGap draws an exponential gap with the given mean.
func (a *arrivalProc) expGap(mean float64) time.Duration {
	// Inverse-CDF; 1-Float64() avoids log(0).
	gap := -math.Log(1-a.rng.Float64()) * mean
	return time.Duration(gap * float64(time.Second))
}

// next returns the delay from the previous arrival to the next one.
func (a *arrivalProc) next() time.Duration {
	switch a.kind {
	case Bursty:
		if a.pending > 0 {
			a.pending--
			return 0 // back-to-back within the burst
		}
		// Draw the next batch size (geometric with mean a.burst, support
		// >= 1) and the exponential gap to its first arrival. Gap mean is
		// burst/rate so the long-run rate matches the Poisson case.
		p := 1 / a.burst
		n := 1
		for a.rng.Float64() > p && n < 1<<16 {
			n++
		}
		a.pending = n - 1
		return a.expGap(a.burst / a.rate)
	default:
		return a.expGap(1 / a.rate)
	}
}
