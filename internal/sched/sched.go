// Package sched implements the paper's multi-tenant future-work extension,
// grown into a fleet control plane. The core is a marginal-gain
// water-filling allocator: each storage-CPU core goes to the job whose
// predicted epoch time (after re-running SOPHON's decision engine at the
// candidate core count) drops the most, until cores run out or no job
// benefits. The fleet coordinator (fleet.go) generalizes it to weighted
// fair-share admission of live tenants against shared per-shard core and
// bandwidth budgets, with per-tenant plan feeds.
package sched

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/policy"
)

// Job is one tenant: a profiled dataset plus its training environment. The
// environment's StorageCores field is ignored — the allocator decides it.
type Job struct {
	Name  string
	Trace *dataset.Trace
	Env   policy.Env
}

// Allocation is the scheduler's output. Every job appears in all three
// maps — a job granted zero cores still carries a valid transfer-only plan
// and a predicted epoch time; nothing is silently dropped.
type Allocation struct {
	// Cores maps job name to granted storage cores.
	Cores map[string]int
	// Plans maps job name to the SOPHON plan at the granted core count.
	Plans map[string]*policy.Plan
	// Predicted maps job name to the modeled epoch time.
	Predicted map[string]time.Duration
}

// TotalPredicted sums the predicted epoch times — the objective the
// allocator minimizes.
func (a Allocation) TotalPredicted() time.Duration {
	var sum time.Duration
	for _, d := range a.Predicted {
		sum += d
	}
	return sum
}

// checkJobs validates a job set: unique non-empty names, non-empty traces,
// and environments valid at every candidate core count.
func checkJobs(jobs []Job) error {
	if len(jobs) == 0 {
		return errors.New("sched: no jobs")
	}
	seen := make(map[string]bool, len(jobs))
	for i, j := range jobs {
		if j.Name == "" {
			return fmt.Errorf("sched: job %d has no name", i)
		}
		if seen[j.Name] {
			return fmt.Errorf("sched: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.Trace == nil || j.Trace.N() == 0 {
			return fmt.Errorf("sched: job %q has an empty trace", j.Name)
		}
		env := j.Env
		env.StorageCores = 0
		if err := env.Validate(); err != nil {
			return fmt.Errorf("sched: job %q: %w", j.Name, err)
		}
	}
	return nil
}

// outcome is one (job, cores) planning result.
type outcome struct {
	plan *policy.Plan
	time time.Duration
}

// evaluator plans jobs at candidate core counts, memoized per (job, cores).
type evaluator struct {
	engine *policy.Sophon
	memo   map[string]outcome
}

func newEvaluator(engine *policy.Sophon) *evaluator {
	if engine == nil {
		engine = policy.NewSophon()
	}
	return &evaluator{engine: engine, memo: make(map[string]outcome)}
}

// evaluate returns the plan and predicted epoch for a job at c cores. The
// plan is never nil: for a job that cannot offload (zero cores, or a
// workload that is not network-bound) Sophon.Plan returns the transfer-only
// plan.
func (e *evaluator) evaluate(j Job, cores int) (outcome, error) {
	key := fmt.Sprintf("%s/%d", j.Name, cores)
	if o, ok := e.memo[key]; ok {
		return o, nil
	}
	env := j.Env
	env.StorageCores = cores
	plan, err := e.engine.Plan(j.Trace, env)
	if err != nil {
		return outcome{}, fmt.Errorf("sched: plan %q at %d cores: %w", j.Name, cores, err)
	}
	m, err := policy.ModelFor(j.Trace, plan, env)
	if err != nil {
		return outcome{}, fmt.Errorf("sched: model %q at %d cores: %w", j.Name, cores, err)
	}
	o := outcome{plan: plan, time: m.Predicted()}
	e.memo[key] = o
	return o, nil
}

// waterFill runs the marginal-gain loop over validated jobs: each core goes
// to the job maximizing weight × predicted-epoch-time drop. weights may be
// nil (all 1). Returns every job's grant and final outcome.
func waterFill(jobs []Job, weights []float64, totalCores int, ev *evaluator) (map[string]int, map[string]outcome, error) {
	granted := make(map[string]int, len(jobs))
	current := make(map[string]outcome, len(jobs))
	for _, j := range jobs {
		o, err := ev.evaluate(j, 0)
		if err != nil {
			return nil, nil, err
		}
		current[j.Name] = o
		granted[j.Name] = 0
	}
	weightOf := func(i int) float64 {
		if weights == nil || weights[i] <= 0 {
			return 1
		}
		return weights[i]
	}
	for c := 0; c < totalCores; c++ {
		bestIdx := -1
		var bestGain float64
		var bestNext outcome
		for i, j := range jobs {
			next, err := ev.evaluate(j, granted[j.Name]+1)
			if err != nil {
				return nil, nil, err
			}
			gain := weightOf(i) * float64(current[j.Name].time-next.time)
			if gain > bestGain { // ties resolve to the earliest job
				bestGain = gain
				bestIdx = i
				bestNext = next
			}
		}
		if bestIdx < 0 || bestGain <= 0 {
			break // no job benefits from another core
		}
		name := jobs[bestIdx].Name
		granted[name]++
		current[name] = bestNext
	}
	return granted, current, nil
}

// Allocate distributes totalCores across the jobs. A nil engine means the
// default SOPHON engine. Every job appears in the returned allocation; jobs
// granted zero cores carry a transfer-only plan.
func Allocate(jobs []Job, totalCores int, engine *policy.Sophon) (Allocation, error) {
	if err := checkJobs(jobs); err != nil {
		return Allocation{}, err
	}
	if totalCores < 0 {
		return Allocation{}, fmt.Errorf("sched: negative core budget %d", totalCores)
	}
	granted, current, err := waterFill(jobs, nil, totalCores, newEvaluator(engine))
	if err != nil {
		return Allocation{}, err
	}
	alloc := Allocation{
		Cores:     granted,
		Plans:     make(map[string]*policy.Plan, len(jobs)),
		Predicted: make(map[string]time.Duration, len(jobs)),
	}
	for _, j := range jobs {
		alloc.Plans[j.Name] = current[j.Name].plan
		alloc.Predicted[j.Name] = current[j.Name].time
	}
	return alloc, nil
}

// EvenSplit is the naive baseline: totalCores divided equally (remainder to
// the first jobs), with SOPHON planning at the fixed grant.
func EvenSplit(jobs []Job, totalCores int, engine *policy.Sophon) (Allocation, error) {
	if err := checkJobs(jobs); err != nil {
		return Allocation{}, err
	}
	if totalCores < 0 {
		return Allocation{}, fmt.Errorf("sched: negative core budget %d", totalCores)
	}
	ev := newEvaluator(engine)
	base := totalCores / len(jobs)
	rem := totalCores % len(jobs)
	alloc := Allocation{
		Cores:     make(map[string]int, len(jobs)),
		Plans:     make(map[string]*policy.Plan, len(jobs)),
		Predicted: make(map[string]time.Duration, len(jobs)),
	}
	for i, j := range jobs {
		cores := base
		if i < rem {
			cores++
		}
		o, err := ev.evaluate(j, cores)
		if err != nil {
			return Allocation{}, fmt.Errorf("sched: even split: %w", err)
		}
		alloc.Cores[j.Name] = cores
		alloc.Plans[j.Name] = o.plan
		alloc.Predicted[j.Name] = o.time
	}
	return alloc, nil
}
