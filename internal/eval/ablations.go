package eval

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sched"
)

// ablationGuardRow compares the paper-faithful engine with the step-guarded
// variant at one storage-core budget.
type ablationGuardRow struct {
	Cores          int
	BaseSeconds    float64
	GuardedSeconds float64
}

// ablationStepGuard runs Ablation A: does rejecting epoch-worsening greedy
// steps change the outcome?
func ablationStepGuard(opts Options) ([]ablationGuardRow, table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return nil, table{}, err
	}
	t := table{
		Title:   "Ablation A: SOPHON greedy loop with and without the step guard (epoch s)",
		Columns: []string{"Storage cores", "SOPHON", "SOPHON+guard"},
	}
	var rows []ablationGuardRow
	for _, cores := range []int{1, 2, 4, 48} {
		env := defaultEnv(cores)
		base, _, err := engine.RunPolicy(policy.NewSophon(), tr, env, 256)
		if err != nil {
			return nil, table{}, err
		}
		guarded, _, err := engine.RunPolicy(&policy.Sophon{StepGuard: true}, tr, env, 256)
		if err != nil {
			return nil, table{}, err
		}
		row := ablationGuardRow{
			Cores:          cores,
			BaseSeconds:    base.EpochTime.Seconds(),
			GuardedSeconds: guarded.EpochTime.Seconds(),
		}
		rows = append(rows, row)
		t.addRow(fmt.Sprintf("%d", cores), fmtF(row.BaseSeconds, 1), fmtF(row.GuardedSeconds, 1))
	}
	return rows, t, nil
}

// ablationHeteroRow is one storage-CPU speed point.
type ablationHeteroRow struct {
	Slowdown     float64
	EpochSeconds float64
	Offloaded    int
}

// ablationHeterogeneous runs Ablation C: SOPHON planning with storage CPUs
// 1×–3× slower than compute CPUs (future-work extension).
func ablationHeterogeneous(opts Options) ([]ablationHeteroRow, table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return nil, table{}, err
	}
	t := table{
		Title:   "Ablation C: heterogeneous storage CPUs (4 cores, OpenImages)",
		Columns: []string{"Storage slowdown", "Epoch (s)", "Offloaded samples"},
	}
	var rows []ablationHeteroRow
	for _, slow := range []float64{1, 1.5, 2, 3} {
		env := defaultEnv(4)
		env.StorageSlowdown = slow
		res, plan, err := engine.RunPolicy(policy.NewSophon(), tr, env, 256)
		if err != nil {
			return nil, table{}, err
		}
		row := ablationHeteroRow{
			Slowdown:     slow,
			EpochSeconds: res.EpochTime.Seconds(),
			Offloaded:    plan.OffloadedCount(),
		}
		rows = append(rows, row)
		t.addRow(fmtF(slow, 1)+"x", fmtF(row.EpochSeconds, 1), fmt.Sprintf("%d", row.Offloaded))
	}
	return rows, t, nil
}

// ablationCacheRow is one local-cache capacity point.
type ablationCacheRow struct {
	CapacityFraction float64 // cache size as a fraction of the dataset
	CacheSeconds     float64 // No-Off + local cache
	SophonSeconds    float64 // SOPHON, no local cache
	ComboSeconds     float64 // SOPHON planned over the cached trace
}

// ablationLocalCache runs Ablation E: the caching alternative the paper's
// introduction contrasts against. A compute-local no-evict cache of
// capacity f·|dataset| removes f of the raw traffic; SOPHON needs no local
// storage at all, and composing the two (SOPHON planned over the cache's
// resident set) stacks their savings.
func ablationLocalCache(opts Options) ([]ablationCacheRow, table, error) {
	tr, err := dataset.GenerateTrace(profileOI(opts), opts.seed())
	if err != nil {
		return nil, table{}, err
	}
	env := defaultEnv(48)
	sophon, _, err := engine.RunPolicy(policy.NewSophon(), tr, env, 256)
	if err != nil {
		return nil, table{}, err
	}
	t := table{
		Title: "Ablation E: local raw-object cache vs SOPHON (OpenImages, 48 cores, epoch s)",
		Columns: []string{"Cache capacity", "No-Off+cache", "SOPHON (no cache)",
			"SOPHON+cache"},
	}
	var rows []ablationCacheRow
	total := tr.TotalRawBytes()
	for _, frac := range []float64{0.10, 0.25, 0.50} {
		capacity := int64(frac * float64(total))
		cached, _ := cache.ApplyToTrace(tr, capacity, opts.seed())
		noOffPlan, err := policy.NewUniformPlan("No-Off", tr.N(), 0)
		if err != nil {
			return nil, table{}, err
		}
		cacheRun, err := engine.Run(engine.Config{Trace: cached, Plan: noOffPlan, Env: env, BatchSize: 256})
		if err != nil {
			return nil, table{}, err
		}
		comboRun, _, err := engine.RunPolicy(policy.NewSophon(), cached, env, 256)
		if err != nil {
			return nil, table{}, err
		}
		row := ablationCacheRow{
			CapacityFraction: frac,
			CacheSeconds:     cacheRun.EpochTime.Seconds(),
			SophonSeconds:    sophon.EpochTime.Seconds(),
			ComboSeconds:     comboRun.EpochTime.Seconds(),
		}
		rows = append(rows, row)
		t.addRow(fmtF(frac*100, 0)+"%",
			fmtF(row.CacheSeconds, 1), fmtF(row.SophonSeconds, 1), fmtF(row.ComboSeconds, 1))
	}
	t.Notes = append(t.Notes,
		"no-evict cache (the DL-cache admission policy); SOPHON needs zero local storage")
	return rows, t, nil
}

// ablationMultiTenantResult compares the marginal-gain scheduler against an
// even split.
type ablationMultiTenantResult struct {
	SmartTotalSeconds float64
	EvenTotalSeconds  float64
	SmartCores        map[string]int
}

// ablationMultiTenant runs Ablation D: three concurrent jobs sharing eight
// storage cores (future-work extension).
func ablationMultiTenant(opts Options) (ablationMultiTenantResult, table, error) {
	scale := func(p dataset.Profile, n int) dataset.Profile {
		if n > 0 {
			return p.ScaledTo(n)
		}
		return p.ScaledTo(p.N / 8) // multi-tenant runs at 1/8 scale by default
	}
	oiA, err := dataset.GenerateTrace(scale(dataset.OpenImages12G(), opts.OpenImages), opts.seed()+1)
	if err != nil {
		return ablationMultiTenantResult{}, table{}, err
	}
	oiB, err := dataset.GenerateTrace(scale(dataset.OpenImages12G(), opts.OpenImages), opts.seed()+2)
	if err != nil {
		return ablationMultiTenantResult{}, table{}, err
	}
	in, err := dataset.GenerateTrace(scale(dataset.ImageNet11G(), opts.ImageNet), opts.seed()+3)
	if err != nil {
		return ablationMultiTenantResult{}, table{}, err
	}
	env := defaultEnv(0)
	jobs := []sched.Job{
		{Name: "openimages-a", Trace: oiA, Env: env},
		{Name: "openimages-b", Trace: oiB, Env: env},
		{Name: "imagenet", Trace: in, Env: env},
	}
	const totalCores = 8
	smart, err := sched.Allocate(jobs, totalCores, nil)
	if err != nil {
		return ablationMultiTenantResult{}, table{}, err
	}
	even, err := sched.EvenSplit(jobs, totalCores, nil)
	if err != nil {
		return ablationMultiTenantResult{}, table{}, err
	}
	res := ablationMultiTenantResult{
		SmartTotalSeconds: smart.TotalPredicted().Seconds(),
		EvenTotalSeconds:  even.TotalPredicted().Seconds(),
		SmartCores:        smart.Cores,
	}
	t := table{
		Title:   "Ablation D: multi-tenant storage-CPU scheduling (3 jobs, 8 cores)",
		Columns: []string{"Allocator", "Total predicted epoch (s)", "Core grants"},
	}
	t.addRow("marginal-gain", fmtF(res.SmartTotalSeconds, 1), grantString(jobs, smart.Cores))
	t.addRow("even-split", fmtF(res.EvenTotalSeconds, 1), grantString(jobs, even.Cores))
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
