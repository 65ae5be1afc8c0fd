// Package dataset provides the training data substrate in two tiers. The
// real tier (ImageSet) synthesizes actual encodable images and is used by
// the live networked trainer, examples, and integration tests. The model
// tier (Trace) generates per-sample records — raw size, decoded dimensions,
// per-stage wire sizes, per-op CPU times — drawn from distributions fitted
// to the statistics the paper reports for its OpenImages 12 GB and ImageNet
// 11 GB subsets, and is used to regenerate the paper's figures at full
// 40k–91k sample scale where synthesizing real pixels would be prohibitive.
// DESIGN.md documents this substitution.
package dataset

import (
	"time"
)

// StageCount is the number of pipeline stages tracked per sample: stage 0 is
// the raw artifact, stages 1..5 follow Decode, RandomResizedCrop,
// RandomHorizontalFlip, ToTensor, Normalize.
const StageCount = 6

// OpCount is the number of preprocessing ops.
const OpCount = StageCount - 1

// Record holds everything the decision engine needs to know about one
// sample. Sizes are artifact wire sizes in bytes; times are single-core CPU
// costs.
type Record struct {
	ID         uint32
	RawSize    int64 // stored object size (stage-0 payload)
	Width      int   // decoded width in pixels
	Height     int   // decoded height in pixels
	StageSizes [StageCount]int64
	OpTimes    [OpCount]time.Duration
}

// MinStage returns the stage index with the smallest wire size, preferring
// the earliest stage on ties.
func (r *Record) MinStage() int {
	best := 0
	for i := 1; i < StageCount; i++ {
		if r.StageSizes[i] < r.StageSizes[best] {
			best = i
		}
	}
	return best
}

// Saving returns the traffic saved (in bytes) by shipping the stage-k
// artifact instead of the raw artifact; negative when stage k is larger.
func (r *Record) Saving(k int) int64 {
	return r.StageSizes[0] - r.StageSizes[k]
}

// PrefixTime returns the CPU time to execute ops [0, k) — the storage-side
// cost of offloading up to stage k.
func (r *Record) PrefixTime(k int) time.Duration {
	var t time.Duration
	for i := 0; i < k && i < OpCount; i++ {
		t += r.OpTimes[i]
	}
	return t
}

// TotalTime returns the full single-core preprocessing time of the sample.
func (r *Record) TotalTime() time.Duration { return r.PrefixTime(OpCount) }

// Trace is the model-tier dataset: a named collection of sample records.
type Trace struct {
	Name    string
	Records []Record
}

// N returns the number of samples.
func (t *Trace) N() int { return len(t.Records) }

// TotalRawBytes sums the stage-0 wire sizes — the per-epoch traffic of a
// no-offloading run.
func (t *Trace) TotalRawBytes() int64 {
	var sum int64
	for i := range t.Records {
		sum += t.Records[i].StageSizes[0]
	}
	return sum
}

// TotalPreprocessCPU sums full preprocessing time across samples (one core).
func (t *Trace) TotalPreprocessCPU() time.Duration {
	var sum time.Duration
	for i := range t.Records {
		sum += t.Records[i].TotalTime()
	}
	return sum
}

// MinStageHistogram counts samples by the stage at which they reach minimum
// wire size; index k of the result corresponds to stage k. This is the
// quantity behind the paper's Figure 1b.
func (t *Trace) MinStageHistogram() [StageCount]int {
	var h [StageCount]int
	for i := range t.Records {
		h[t.Records[i].MinStage()]++
	}
	return h
}

// FractionBenefiting returns the fraction of samples whose minimum wire size
// occurs after at least one preprocessing op (76 % for the paper's
// OpenImages subset, 26 % for ImageNet).
func (t *Trace) FractionBenefiting() float64 {
	if len(t.Records) == 0 {
		return 0
	}
	n := 0
	for i := range t.Records {
		if t.Records[i].MinStage() > 0 {
			n++
		}
	}
	return float64(n) / float64(len(t.Records))
}
