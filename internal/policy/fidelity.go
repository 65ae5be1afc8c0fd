package policy

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
)

// FidelityModel describes a progressive container family's byte/quality
// ladder: with Levels scans, serving the first k scans costs
// ByteFrac[k-1] of the full container and reconstructs at Quality[k-1].
// The planner consumes this instead of per-sample scan tables — the
// fractions are calibrated once against the real codec (imaging.SJPG's scans) on
// representative images, the same way the dataset's cost model calibrates
// op times.
type FidelityModel struct {
	Levels   int
	ByteFrac []float64 // cumulative prefix byte fraction; ByteFrac[Levels-1] == 1
	Quality  []float64 // reconstruction quality in (0, 1]; Quality[Levels-1] == 1
}

// ErrFidelityModel reports an inconsistent ladder.
var ErrFidelityModel = errors.New("policy: invalid fidelity model")

// Validate checks ladder shape: both tracks cover every level, are
// monotone non-decreasing, stay in (0, 1], and reach exactly 1 at full
// depth.
func (m FidelityModel) Validate() error {
	if m.Levels < 1 {
		return fmt.Errorf("%w: %d levels", ErrFidelityModel, m.Levels)
	}
	if len(m.ByteFrac) != m.Levels || len(m.Quality) != m.Levels {
		return fmt.Errorf("%w: %d levels with %d byte fractions, %d qualities",
			ErrFidelityModel, m.Levels, len(m.ByteFrac), len(m.Quality))
	}
	for k := 0; k < m.Levels; k++ {
		if m.ByteFrac[k] <= 0 || m.ByteFrac[k] > 1 || m.Quality[k] <= 0 || m.Quality[k] > 1 {
			return fmt.Errorf("%w: level %d out of (0, 1]", ErrFidelityModel, k)
		}
		if k > 0 && (m.ByteFrac[k] < m.ByteFrac[k-1] || m.Quality[k] < m.Quality[k-1]) {
			return fmt.Errorf("%w: level %d not monotone", ErrFidelityModel, k)
		}
	}
	if m.ByteFrac[m.Levels-1] != 1 || m.Quality[m.Levels-1] != 1 {
		return fmt.Errorf("%w: full depth must be exactly 1", ErrFidelityModel)
	}
	return nil
}

// MaxDrop returns the deepest scan drop the ladder supports.
func (m FidelityModel) MaxDrop() int { return m.Levels - 1 }

// fracFor returns the byte fraction shipped when drop scans are withheld.
func (m FidelityModel) fracFor(drop int) float64 {
	if drop <= 0 {
		return 1
	}
	if drop > m.Levels-1 {
		drop = m.Levels - 1
	}
	return m.ByteFrac[m.Levels-1-drop]
}

// qualityFor returns the reconstruction quality when drop scans are
// withheld.
func (m FidelityModel) qualityFor(drop int) float64 {
	if drop <= 0 {
		return 1
	}
	if drop > m.Levels-1 {
		drop = m.Levels - 1
	}
	return m.Quality[m.Levels-1-drop]
}

// BytesAt returns the transfer size when drop scans are withheld from a
// full container of size bytes (never below 1 byte; drop 0 is the full
// size). This is the single byte-accounting rule shared by the planner and
// the discrete-event engine.
func (m FidelityModel) BytesAt(size int64, drop int) int64 {
	if drop <= 0 {
		return size
	}
	scaled := int64(float64(size) * m.fracFor(drop))
	if scaled < 1 {
		scaled = 1
	}
	return scaled
}

// FidelityOf returns how many refinement scans sample id's raw container
// drops in transfer (0 = full fidelity; plans without a fidelity dimension
// are full-fidelity everywhere).
func (p *Plan) FidelityOf(id int) int {
	if id < 0 || id >= len(p.Fidelity) {
		return 0
	}
	return int(p.Fidelity[id])
}

// ReducedCount returns how many samples ship at reduced fidelity.
func (p *Plan) ReducedCount() int {
	n := 0
	for _, f := range p.Fidelity {
		if f > 0 {
			n++
		}
	}
	return n
}

// MeanQuality returns the plan's mean per-sample reconstruction quality
// under the ladder: 1.0 for discrete-cut and full-fidelity samples,
// Quality[L-1-drop] for reduced ones.
func (p *Plan) MeanQuality(fm FidelityModel) float64 {
	if p.N() == 0 {
		return 1
	}
	sum := 0.0
	for i := range p.Splits {
		if p.Splits[i] == 0 {
			sum += fm.qualityFor(p.FidelityOf(i))
		} else {
			sum += 1
		}
	}
	return sum / float64(p.N())
}

// TrafficWith is Traffic with fidelity-aware byte accounting: a sample that
// ships its raw progressive container at reduced depth counts the fidelity
// prefix of its stage-split artifact. Fidelity only applies at split 0 —
// deeper cuts ship decoded artifacts that have no scan structure.
func (p *Plan) TrafficWith(tr *dataset.Trace, fm FidelityModel) (int64, error) {
	if err := fm.Validate(); err != nil {
		return 0, err
	}
	if len(p.Splits) != tr.N() {
		return 0, fmt.Errorf("%w: plan %d vs trace %d", ErrPlanMismatch, len(p.Splits), tr.N())
	}
	var sum int64
	for i := range tr.Records {
		size := tr.Records[i].StageSizes[p.Splits[i]]
		if p.Splits[i] == 0 {
			size = fm.BytesAt(size, p.FidelityOf(i))
		}
		sum += size
	}
	return sum, nil
}

// FidelityPass configures SOPHON's progressive second pass: after the
// discrete greedy loop, samples still shipping raw may withhold refinement
// scans. Unlike a discrete cut, a fidelity drop saves bytes at ZERO
// storage-CPU cost (the server slices the stored container without
// re-encoding), so it reaches exactly the samples the discrete loop cannot
// help once storage cores are the binding constraint — the continuum the
// progressive-records line of work adds to the paper's decision space.
type FidelityPass struct {
	// Model is the calibrated byte/quality ladder; required.
	Model FidelityModel
	// QualityFloor is the per-sample reconstruction quality floor; samples
	// are never dropped below it. 0 means no per-sample floor.
	QualityFloor float64
	// MeanQualityFloor bounds the plan-wide mean quality; admission stops
	// before crossing it. 0 means no aggregate floor.
	MeanQualityFloor float64
}

// Validate checks the pass configuration.
func (fp FidelityPass) Validate() error {
	if err := fp.Model.Validate(); err != nil {
		return err
	}
	if fp.QualityFloor < 0 || fp.QualityFloor > 1 || fp.MeanQualityFloor < 0 || fp.MeanQualityFloor > 1 {
		return fmt.Errorf("%w: quality floors out of [0, 1]", ErrFidelityModel)
	}
	return nil
}

// applyFidelityPass runs the progressive greedy loop over a discrete plan
// in place: rank split-0 samples by bytes saved at their deepest
// floor-respecting drop, admit while the sample's shard keeps T_Net
// strictly dominant and the plan-wide mean quality stays above the floor.
// The tg/tcc/tnet/tcs state continues from the discrete loop so the stop
// condition is shared.
func applyFidelityPass(plan *Plan, tr *dataset.Trace, env Env, fp FidelityPass,
	shardMap *cluster.ShardMap, tg, tcc time.Duration, tnet, tcs []time.Duration) {
	type fidCand struct {
		id     int
		drop   int
		saving int64
	}
	cands := make([]fidCand, 0, tr.N())
	for i := range tr.Records {
		if plan.Splits[i] != 0 {
			continue
		}
		drop := fp.Model.MaxDrop()
		for drop > 0 && fp.QualityFloor > 0 && fp.Model.qualityFor(drop) < fp.QualityFloor {
			drop--
		}
		if drop == 0 {
			continue
		}
		raw := tr.Records[i].StageSizes[0]
		saving := raw - int64(float64(raw)*fp.Model.fracFor(drop))
		if saving <= 0 {
			continue
		}
		cands = append(cands, fidCand{id: i, drop: drop, saving: saving})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].saving != cands[j].saving {
			return cands[i].saving > cands[j].saving
		}
		return cands[i].id < cands[j].id
	})

	netDominant := func(sh int) bool {
		return tnet[sh] > tg && tnet[sh] > tcc && tnet[sh] > tcs[sh]
	}
	n := float64(plan.N())
	qualityBudget := 0.0 // total quality mass the floor allows us to spend
	if fp.MeanQualityFloor > 0 {
		qualityBudget = (1 - fp.MeanQualityFloor) * n
	}
	spent := 0.0
	for _, c := range cands {
		sh := shardMap.ShardOf(uint32(c.id))
		if !netDominant(sh) {
			continue
		}
		cost := 1 - fp.Model.qualityFor(c.drop)
		if fp.MeanQualityFloor > 0 && spent+cost > qualityBudget {
			continue // a cheaper (shallower-loss) candidate may still fit
		}
		if len(plan.Fidelity) == 0 {
			plan.Fidelity = make([]uint8, plan.N())
		}
		plan.Fidelity[c.id] = uint8(c.drop)
		spent += cost
		tnet[sh] -= time.Duration(float64(c.saving) / env.Bandwidth * float64(time.Second))
	}
}
