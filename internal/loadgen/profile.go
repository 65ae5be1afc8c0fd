package loadgen

import (
	"time"

	"repro/internal/sched"
)

// SpecFromTenant derives a load-generator job profile from a fleet tenant
// and its coordinator grant, so the harness drives the storage tier with
// the same class mix the planner actually decided: the grant's plan fixes
// the offloaded/raw split and the mean artifact sizes and storage-CPU cost
// per offloaded fetch, while hitRate models the tenant's shared-cache hit
// fraction (measured or assumed).
//
// sessions and rate shape the offered load: sessions concurrent pipelined
// streams each offering rate requests/second, bursty to model prefetch
// windows (callers can override Arrival/Burst on the returned spec).
func SpecFromTenant(t sched.Tenant, g sched.Grant, sessions int, rate, hitRate float64) JobSpec {
	if hitRate < 0 {
		hitRate = 0
	}
	if hitRate > 1 {
		hitRate = 1
	}
	spec := JobSpec{
		Name:     t.Name,
		Weight:   t.Weight,
		Sessions: sessions,
		Rate:     rate,
		Arrival:  poisson,
	}

	tr := t.Trace
	n := 0
	if tr != nil {
		n = tr.N()
	}
	if n == 0 || g.Plan == nil || g.Plan.N() != n {
		// No usable plan: everything is a raw fetch of unknown size.
		spec.Mix = [3]float64{hitRate, 0, 1 - hitRate}
		spec.RawBytes = 1 << 20
		return spec
	}

	// Walk the plan once for exact per-class means: samples with a
	// non-zero split ship their stage artifact after PrefixTime of
	// storage CPU; split-0 samples ship raw bytes.
	var (
		offCount int
		offBytes int64
		offCPU   time.Duration
		rawCount int
		rawBytes int64
	)
	for i := range tr.Records {
		k := g.Plan.Split(i)
		if k > 0 {
			offCount++
			offBytes += g.Plan.ShippedBytes(tr, i, nil)
			offCPU += tr.Records[i].PrefixTime(k)
		} else {
			rawCount++
			rawBytes += g.Plan.ShippedBytes(tr, i, nil)
		}
	}
	offFrac := float64(offCount) / float64(n)
	spec.Mix = [3]float64{hitRate, (1 - hitRate) * offFrac, (1 - hitRate) * (1 - offFrac)}
	if offCount > 0 {
		spec.OffloadedBytes = offBytes / int64(offCount)
		spec.OffloadCPU = offCPU / time.Duration(offCount)
	}
	if rawCount > 0 {
		spec.RawBytes = rawBytes / int64(rawCount)
	} else {
		// All samples offloaded; keep a sane raw size for the residual
		// raw probability (zero here, but the field should not be 0).
		spec.RawBytes = spec.OffloadedBytes
	}
	return spec
}
