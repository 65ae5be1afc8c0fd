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
	"repro/internal/simclock"
)

// SLOClass is one fetch class's latency distribution in milliseconds —
// fixed units so records from different runs diff cleanly.
type SLOClass struct {
	Count  uint64  `json:"count"`
	Shed   uint64  `json:"shed"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// SLOScenario is one load-generator run: a named workload with its offered
// and delivered rates and the per-class distributions.
type SLOScenario struct {
	Name          string              `json:"name"`
	Sessions      int                 `json:"sessions"`
	Offered       uint64              `json:"offered"`
	Completed     uint64              `json:"completed"`
	Shed          uint64              `json:"shed"`
	OfferedRPS    float64             `json:"offered_rps"`
	ThroughputRPS float64             `json:"throughput_rps"`
	ShedRate      float64             `json:"shed_rate"`
	MaxQueueDepth int                 `json:"max_queue_depth"`
	Classes       map[string]SLOClass `json:"classes"`
}

// SLORecord is the output of `sophon-bench -load`: one record per run, one
// scenario per workload. Version stays 1 while the shape does.
type SLORecord struct {
	Kind      string        `json:"kind"` // always "SLO"
	Version   int           `json:"version"`
	GoVersion string        `json:"go_version"`
	Seed      uint64        `json:"seed"`
	Scenarios []SLOScenario `json:"scenarios"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ScenarioFromReport freezes one loadgen report into an SLO scenario.
func ScenarioFromReport(name string, r *loadgen.Report) SLOScenario {
	s := SLOScenario{
		Name:          name,
		Sessions:      r.Sessions,
		Offered:       r.Offered,
		Completed:     r.Completed,
		Shed:          r.Shed,
		OfferedRPS:    r.OfferedRPS,
		ThroughputRPS: r.ThroughputRPS,
		ShedRate:      r.ShedRate,
		MaxQueueDepth: r.MaxQueueDepth,
		Classes:       make(map[string]SLOClass, len(r.Classes)),
	}
	for class, c := range r.Classes {
		s.Classes[class] = SLOClass{
			Count:  c.Count,
			Shed:   c.Shed,
			P50Ms:  ms(c.P50),
			P90Ms:  ms(c.P90),
			P99Ms:  ms(c.P99),
			P999Ms: ms(c.P999),
			MaxMs:  ms(c.Max),
			MeanMs: ms(c.Mean),
		}
	}
	return s
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
func runLoadScenario(name string, seed uint64, util float64, adm loadgen.AdmissionSpec) (SLOScenario, *loadgen.Report, error) {
	jobs, err := buildLoadJobs(seed, util)
	if err != nil {
		return SLOScenario{}, nil, err
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
		return SLOScenario{}, nil, err
	}
	return ScenarioFromReport(name, rep), rep, nil
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
	record := SLORecord{
		Kind:      "SLO",
		Version:   1,
		GoVersion: runtime.Version(),
		Seed:      seed,
		Scenarios: []SLOScenario{steady, overload},
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
