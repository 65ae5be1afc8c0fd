package main

// The -load mode: the heavy-traffic serving harness's CLI surface. It runs
// the open-loop load generator against the simulated sharded tier and writes
// a versioned SLO record; TestCommittedRecords holds BENCH_pr7.json to it.

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/sched"
)

// SLORecord is the output of `sophon-bench -load`: one record per run, one
// loadgen report per workload. Version stays 1 while the shape does.
type SLORecord struct {
	Kind      string            `json:"kind"` // always "SLO"
	Version   int               `json:"version"`
	GoVersion string            `json:"go_version"`
	Seed      uint64            `json:"seed"`
	Scenarios []*loadgen.Report `json:"scenarios"`
}

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

// buildLoadJobs derives the mixed job profiles from planned traces: two
// jobs (an OpenImages-profile job and an ImageNet-profile job) share the
// tier's cores and link, each planned on its even link share, and their
// plans are turned into loadgen specs. Roughly 2/3 of the sessions go to
// the heavier job, which also weighs 2 in the simulated admission queues.
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
	env := policy.Env{
		ComputeCores:    16,
		Bandwidth:       netsim.Mbps(loadMbps) / 2,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
		Shards:          loadShards,
	}
	alloc, err := sched.Allocate([]sched.Job{
		{Name: "openimages", Trace: trA, Env: env},
		{Name: "imagenet", Trace: trB, Env: env},
	}, loadShards*loadCores, nil)
	if err != nil {
		return nil, err
	}
	// Provisional per-session rates (scaled to the link below): the
	// heavier job's sessions also arrive faster.
	heavy := loadgen.SpecFromPlan(trA, alloc.Plans["openimages"], 0.4)
	heavy.Name, heavy.Weight = "openimages", 2
	heavy.Sessions, heavy.Rate = loadSessions*2/3, 1.5
	// The lighter job arrives in bursts — mixed arrival processes stress
	// the admission queue harder than two smooth streams.
	light := loadgen.SpecFromPlan(trB, alloc.Plans["imagenet"], 0.3)
	light.Name, light.Weight = "imagenet", 1
	light.Sessions, light.Rate = loadSessions-heavy.Sessions, 1
	light.Arrival, light.Burst = loadgen.Bursty, 8
	jobs := []loadgen.JobSpec{heavy, light}
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
func runLoadScenario(name string, seed uint64, util float64, adm loadgen.AdmissionSpec) (*loadgen.Report, error) {
	jobs, err := buildLoadJobs(seed, util)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	rep.Name = name
	return rep, nil
}

// writeLoadJSON runs the steady and overload scenarios and writes the SLO
// record. Steady offers ~65% of tier capacity; overload offers 2.6x
// capacity against a tight admission budget, so the record shows both
// nominal SLOs and shed-load behavior.
func writeLoadJSON(path string, seed uint64) error {
	steady, err := runLoadScenario("steady", seed, 0.65, loadgen.AdmissionSpec{})
	if err != nil {
		return err
	}
	overload, err := runLoadScenario("overload", seed, 2.6, loadgen.AdmissionSpec{
		MaxInFlightBytes:  2 << 20,
		MaxQueuePerTenant: 16,
	})
	if err != nil {
		return err
	}
	record := SLORecord{
		Kind:      "SLO",
		Version:   1,
		GoVersion: runtime.Version(),
		Seed:      seed,
		Scenarios: []*loadgen.Report{steady, overload},
	}
	if err := writeJSON(path, record); err != nil {
		return err
	}
	for _, s := range record.Scenarios {
		fmt.Fprintf(os.Stderr, "sophon-bench: %-8s %d sessions, %.0f rps offered, %.0f rps served, %.2f%% shed",
			s.Name, s.Sessions, s.OfferedRPS, s.ThroughputRPS, 100*s.ShedRate)
		if c := s.Classes["raw"]; c != nil {
			fmt.Fprintf(os.Stderr, ", raw p99 %.2f ms", c.P99Ms)
		}
		fmt.Fprintln(os.Stderr)
	}
	return nil
}
