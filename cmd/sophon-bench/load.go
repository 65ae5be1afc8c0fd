package main

// The -load / -gate modes: the heavy-traffic serving harness's CLI surface.
// -load runs the open-loop load generator against the simulated sharded tier
// and writes a versioned SLO record; -gate.cur diffs a fresh record against
// the committed baseline and exits non-zero on regression (the CI
// perf-trajectory gate).

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/perfbench"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// The load scenario BENCH_pr7.json records: 2 400 open-loop sessions for
// five simulated seconds against four shards of eight offload cores, the
// paper's 500 Mbps storage link split evenly across them.
const (
	loadSessions = 2400
	loadDuration = 5 * time.Second
	loadShards   = 4
	loadCores    = 8
	loadMbps     = 500
)

// buildLoadJobs derives the mixed job profiles from fleet tenant specs: two
// tenants (an OpenImages-profile job and an ImageNet-profile job) admitted
// to one coordinator sharing the tier's cores and link, their grants turned
// into loadgen specs. Roughly 2/3 of the sessions go to the heavier tenant.
// Arrival rates are scaled so the offered link traffic is util × the tier's
// capacity — util < 1 is a steady workload, util > 1 open-loop overload.
func buildLoadJobs(seed uint64, util float64) ([]loadgen.JobSpec, error) {
	trA, err := dataset.GenerateTrace(dataset.OpenImages12G().ScaledTo(1200), seed)
	if err != nil {
		return nil, err
	}
	trB, err := dataset.GenerateTrace(dataset.ImageNet11G().ScaledTo(800), seed+1)
	if err != nil {
		return nil, err
	}
	coord, err := sched.NewCoordinator(sched.FleetConfig{
		Cores:     loadShards * loadCores,
		Bandwidth: netsim.Mbps(loadMbps),
		Shards:    loadShards,
		Clock:     simclock.NewVirtual(time.Unix(0, 0)),
	})
	if err != nil {
		return nil, err
	}
	env := policy.Env{
		ComputeCores:    16,
		Bandwidth:       netsim.Mbps(loadMbps),
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
	}
	tenants := []sched.Tenant{
		{Name: "openimages", Weight: 2, Trace: trA, Env: env},
		{Name: "imagenet", Weight: 1, Trace: trB, Env: env},
	}
	var jobs []loadgen.JobSpec
	for i, t := range tenants {
		if _, err := coord.Admit(t); err != nil {
			return nil, fmt.Errorf("admit %s: %w", t.Name, err)
		}
		grant := coord.Grants()[t.Name]
		sessions := loadSessions * 2 / 3
		hitRate := 0.4
		if i == 1 {
			sessions = loadSessions - sessions
			hitRate = 0.3
		}
		// Provisional per-session rates (scaled to the link below): the
		// heavier tenant's sessions also arrive faster.
		spec := loadgen.SpecFromTenant(t, grant, sessions, 1.5, hitRate)
		if i == 1 {
			// The lighter tenant arrives in bursts — mixed arrival processes
			// stress the admission queue harder than two smooth streams.
			spec.Arrival = loadgen.Bursty
			spec.Burst = 8
			spec.Rate = 1
		}
		jobs = append(jobs, spec)
	}
	// Scale every rate so offered traffic = util × tier bandwidth.
	var offered float64
	for _, j := range jobs {
		perReq := j.Mix[1]*float64(j.OffloadedBytes) + j.Mix[2]*float64(j.RawBytes)
		offered += float64(j.Sessions) * j.Rate * perReq
	}
	if offered <= 0 {
		return nil, fmt.Errorf("load workload offers no link traffic")
	}
	scale := util * netsim.Mbps(loadMbps) / offered
	for i := range jobs {
		jobs[i].Rate *= scale
	}
	return jobs, nil
}

// runLoadScenario runs one named workload through the DES harness.
func runLoadScenario(name string, seed uint64, util float64, adm loadgen.AdmissionSpec) (perfbench.SLOScenario, *loadgen.Report, error) {
	jobs, err := buildLoadJobs(seed, util)
	if err != nil {
		return perfbench.SLOScenario{}, nil, err
	}
	rep, err := loadgen.Run(loadgen.Config{
		Seed:            seed,
		Duration:        loadDuration,
		Jobs:            jobs,
		Shards:          loadShards,
		CoresPerShard:   loadCores,
		LinkBytesPerSec: netsim.Mbps(loadMbps) / float64(loadShards),
		Admission:       adm,
	})
	if err != nil {
		return perfbench.SLOScenario{}, nil, err
	}
	return perfbench.ScenarioFromReport(name, rep), rep, nil
}

// writeLoadJSON runs the steady and overload scenarios and writes the SLO
// record. Steady offers ~65% of tier capacity; overload offers 2.6x
// capacity against a tight admission budget, so the record shows both
// nominal SLOs and shed-load behavior.
func writeLoadJSON(path string, seed uint64) error {
	steady, steadyRep, err := runLoadScenario("steady", seed, 0.65, loadgen.AdmissionSpec{})
	if err != nil {
		return err
	}
	overload, overloadRep, err := runLoadScenario("overload", seed, 2.6, loadgen.AdmissionSpec{
		MaxInFlightBytes:  2 << 20,
		MaxQueuePerTenant: 16,
	})
	if err != nil {
		return err
	}
	record := perfbench.SLORecord{
		Kind:      "SLO",
		Version:   perfbench.SLORecordVersion,
		GoVersion: runtime.Version(),
		Seed:      seed,
		Scenarios: []perfbench.SLOScenario{steady, overload},
	}
	if err := writeJSON(path, record); err != nil {
		return err
	}
	for _, s := range []struct {
		name string
		rep  *loadgen.Report
	}{{"steady", steadyRep}, {"overload", overloadRep}} {
		fmt.Fprintf(os.Stderr, "sophon-bench: %-8s %d sessions, %.0f rps offered, %.0f rps served, %.2f%% shed",
			s.name, s.rep.Sessions, s.rep.OfferedRPS, s.rep.ThroughputRPS, 100*s.rep.ShedRate)
		if c := s.rep.Classes["raw"]; c != nil {
			fmt.Fprintf(os.Stderr, ", raw p99 %.2f ms", float64(c.P99.Nanoseconds())/1e6)
		}
		fmt.Fprintln(os.Stderr)
	}
	return nil
}

// runGate diffs two committed perf records and logs every regression past
// the thresholds; any is an error (→ exit 1). The record shape is detected
// from the files: two SLO records gate latency and throughput with
// CompareSLO, two alloc-suite BENCH records gate allocs/op with CompareBench
// (allocSlack extra allocations tolerated per kernel). Mixing shapes is a
// usage error.
func runGate(logger *log.Logger, prevPath, curPath string, noise float64, allocSlack int64) error {
	prevData, err := os.ReadFile(prevPath)
	if err != nil {
		return err
	}
	curData, err := os.ReadFile(curPath)
	if err != nil {
		return err
	}
	if perfbench.IsBenchSuite(prevData) != perfbench.IsBenchSuite(curData) {
		return fmt.Errorf("%s and %s are different record shapes; gate like against like", prevPath, curPath)
	}

	var regs []string
	if perfbench.IsBenchSuite(prevData) {
		var prev, cur perfbench.BenchRecord
		if err := json.Unmarshal(prevData, &prev); err != nil {
			return fmt.Errorf("%s: %w", prevPath, err)
		}
		if err := json.Unmarshal(curData, &cur); err != nil {
			return fmt.Errorf("%s: %w", curPath, err)
		}
		regs = perfbench.CompareBench(prev, cur, allocSlack)
	} else {
		decode := func(path string, data []byte) (rec perfbench.SLORecord, err error) {
			if err := json.Unmarshal(data, &rec); err != nil {
				return rec, fmt.Errorf("%s: %w", path, err)
			}
			if rec.Kind != "SLO" {
				return rec, fmt.Errorf("%s: kind %q, want SLO or an alloc-suite BENCH record", path, rec.Kind)
			}
			return rec, nil
		}
		prev, err := decode(prevPath, prevData)
		if err != nil {
			return err
		}
		cur, err := decode(curPath, curData)
		if err != nil {
			return err
		}
		regs = perfbench.CompareSLO(prev, cur, noise)
	}
	if len(regs) == 0 {
		logger.Printf("gate PASS (%s vs %s)", curPath, prevPath)
		return nil
	}
	for _, r := range regs {
		logger.Printf("gate FAIL: %s", r)
	}
	return fmt.Errorf("gate: %d regressions in %s against %s", len(regs), curPath, prevPath)
}
