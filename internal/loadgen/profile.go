package loadgen

import (
	"time"

	"repro/internal/dataset"
	"repro/internal/policy"
)

// SpecFromPlan derives a job profile's fetch classes from a trace and the
// plan made for it, so the harness drives the storage tier with the class
// mix the planner actually decided: the plan fixes the offloaded/raw split
// and the mean artifact sizes and storage-CPU cost per offloaded fetch,
// while hitRate models the job's shared-cache hit fraction (measured or
// assumed). The caller names the job and shapes its offered load (Sessions,
// Rate, Arrival, Weight).
func SpecFromPlan(tr *dataset.Trace, plan *policy.Plan, hitRate float64) JobSpec {
	hitRate = min(max(hitRate, 0), 1)
	var spec JobSpec
	n := 0
	if tr != nil {
		n = tr.N()
	}
	if n == 0 || plan == nil || plan.N() != n {
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
		k := plan.Split(i)
		if k > 0 {
			offCount++
			offBytes += plan.ShippedBytes(tr, i, nil)
			offCPU += tr.Records[i].PrefixTime(k)
		} else {
			rawCount++
			rawBytes += plan.ShippedBytes(tr, i, nil)
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
