package eval

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sched"
)

// AblationGuardRow compares the paper-faithful engine with the step-guarded
// variant at one storage-core budget.
type AblationGuardRow struct {
	Cores          int
	BaseSeconds    float64
	GuardedSeconds float64
}

// AblationStepGuard runs Ablation A: does rejecting epoch-worsening greedy
// steps change the outcome?
func AblationStepGuard(opts Options) ([]AblationGuardRow, Table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:   "Ablation A: SOPHON greedy loop with and without the step guard (epoch s)",
		Columns: []string{"Storage cores", "SOPHON", "SOPHON+guard"},
	}
	var rows []AblationGuardRow
	for _, cores := range []int{1, 2, 4, 48} {
		env := DefaultEnv(cores)
		base, _, err := engine.RunPolicy(policy.NewSophon(), tr, env, 256)
		if err != nil {
			return nil, Table{}, err
		}
		guarded, _, err := engine.RunPolicy(&policy.Sophon{StepGuard: true}, tr, env, 256)
		if err != nil {
			return nil, Table{}, err
		}
		row := AblationGuardRow{
			Cores:          cores,
			BaseSeconds:    base.EpochTime.Seconds(),
			GuardedSeconds: guarded.EpochTime.Seconds(),
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%d", cores), fmtF(row.BaseSeconds, 1), fmtF(row.GuardedSeconds, 1))
	}
	return rows, t, nil
}

// AblationHeteroRow is one storage-CPU speed point.
type AblationHeteroRow struct {
	Slowdown     float64
	EpochSeconds float64
	Offloaded    int
}

// AblationHeterogeneous runs Ablation C: SOPHON planning with storage CPUs
// 1×–3× slower than compute CPUs (future-work extension).
func AblationHeterogeneous(opts Options) ([]AblationHeteroRow, Table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:   "Ablation C: heterogeneous storage CPUs (4 cores, OpenImages)",
		Columns: []string{"Storage slowdown", "Epoch (s)", "Offloaded samples"},
	}
	var rows []AblationHeteroRow
	for _, slow := range []float64{1, 1.5, 2, 3} {
		env := DefaultEnv(4)
		env.StorageSlowdown = slow
		res, plan, err := engine.RunPolicy(policy.NewSophon(), tr, env, 256)
		if err != nil {
			return nil, Table{}, err
		}
		row := AblationHeteroRow{
			Slowdown:     slow,
			EpochSeconds: res.EpochTime.Seconds(),
			Offloaded:    plan.OffloadedCount(),
		}
		rows = append(rows, row)
		t.AddRow(fmtF(slow, 1)+"x", fmtF(row.EpochSeconds, 1), fmt.Sprintf("%d", row.Offloaded))
	}
	return rows, t, nil
}

// AblationCacheRow is one local-cache capacity point.
type AblationCacheRow struct {
	CapacityFraction float64 // cache size as a fraction of the dataset
	CacheSeconds     float64 // No-Off + local cache
	SophonSeconds    float64 // SOPHON, no local cache
	ComboSeconds     float64 // SOPHON planned over the cached trace
}

// AblationLocalCache runs Ablation E: the caching alternative the paper's
// introduction contrasts against. A compute-local no-evict cache of
// capacity f·|dataset| removes f of the raw traffic; SOPHON needs no local
// storage at all, and composing the two (SOPHON planned over the cache's
// resident set) stacks their savings.
func AblationLocalCache(opts Options) ([]AblationCacheRow, Table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return nil, Table{}, err
	}
	env := DefaultEnv(48)
	sophon, _, err := engine.RunPolicy(policy.NewSophon(), tr, env, 256)
	if err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title: "Ablation E: local raw-object cache vs SOPHON (OpenImages, 48 cores, epoch s)",
		Columns: []string{"Cache capacity", "No-Off+cache", "SOPHON (no cache)",
			"SOPHON+cache"},
	}
	var rows []AblationCacheRow
	total := tr.TotalRawBytes()
	for _, frac := range []float64{0.10, 0.25, 0.50} {
		capacity := int64(frac * float64(total))
		cached, _ := cache.ApplyToTrace(tr, capacity, opts.seed())
		noOffPlan, err := policy.NewUniformPlan("No-Off", tr.N(), 0)
		if err != nil {
			return nil, Table{}, err
		}
		cacheRun, err := engine.Run(engine.Config{Trace: cached, Plan: noOffPlan, Env: env, BatchSize: 256})
		if err != nil {
			return nil, Table{}, err
		}
		comboRun, _, err := engine.RunPolicy(policy.NewSophon(), cached, env, 256)
		if err != nil {
			return nil, Table{}, err
		}
		row := AblationCacheRow{
			CapacityFraction: frac,
			CacheSeconds:     cacheRun.EpochTime.Seconds(),
			SophonSeconds:    sophon.EpochTime.Seconds(),
			ComboSeconds:     comboRun.EpochTime.Seconds(),
		}
		rows = append(rows, row)
		t.AddRow(fmtF(frac*100, 0)+"%",
			fmtF(row.CacheSeconds, 1), fmtF(row.SophonSeconds, 1), fmtF(row.ComboSeconds, 1))
	}
	t.Notes = append(t.Notes,
		"no-evict cache (the DL-cache admission policy); SOPHON needs zero local storage")
	return rows, t, nil
}

// AblationMultiTenantResult compares the marginal-gain scheduler against an
// even split.
type AblationMultiTenantResult struct {
	SmartTotalSeconds float64
	EvenTotalSeconds  float64
	SmartCores        map[string]int
}

// AblationMultiTenant runs Ablation D: three concurrent jobs sharing eight
// storage cores (future-work extension).
func AblationMultiTenant(opts Options) (AblationMultiTenantResult, Table, error) {
	scale := func(p dataset.Profile, n int) dataset.Profile {
		if n > 0 {
			return p.ScaledTo(n)
		}
		return p.ScaledTo(p.N / 8) // multi-tenant runs at 1/8 scale by default
	}
	oiA, err := dataset.GenerateTrace(scale(dataset.OpenImages12G(), opts.OpenImages), opts.seed()+1)
	if err != nil {
		return AblationMultiTenantResult{}, Table{}, err
	}
	oiB, err := dataset.GenerateTrace(scale(dataset.OpenImages12G(), opts.OpenImages), opts.seed()+2)
	if err != nil {
		return AblationMultiTenantResult{}, Table{}, err
	}
	in, err := dataset.GenerateTrace(scale(dataset.ImageNet11G(), opts.ImageNet), opts.seed()+3)
	if err != nil {
		return AblationMultiTenantResult{}, Table{}, err
	}
	env := DefaultEnv(0)
	jobs := []sched.Job{
		{Name: "openimages-a", Trace: oiA, Env: env},
		{Name: "openimages-b", Trace: oiB, Env: env},
		{Name: "imagenet", Trace: in, Env: env},
	}
	const totalCores = 8
	smart, err := sched.Allocate(jobs, totalCores, nil)
	if err != nil {
		return AblationMultiTenantResult{}, Table{}, err
	}
	even, err := sched.EvenSplit(jobs, totalCores, nil)
	if err != nil {
		return AblationMultiTenantResult{}, Table{}, err
	}
	res := AblationMultiTenantResult{
		SmartTotalSeconds: smart.TotalPredicted().Seconds(),
		EvenTotalSeconds:  even.TotalPredicted().Seconds(),
		SmartCores:        smart.Cores,
	}
	t := Table{
		Title:   "Ablation D: multi-tenant storage-CPU scheduling (3 jobs, 8 cores)",
		Columns: []string{"Allocator", "Total predicted epoch (s)", "Core grants"},
	}
	t.AddRow("marginal-gain", fmtF(res.SmartTotalSeconds, 1), grantString(jobs, smart.Cores))
	t.AddRow("even-split", fmtF(res.EvenTotalSeconds, 1), grantString(jobs, even.Cores))
	return res, t, nil
}

func grantString(jobs []sched.Job, cores map[string]int) string {
	s := ""
	for i, j := range jobs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", j.Name, cores[j.Name])
	}
	return s
}
