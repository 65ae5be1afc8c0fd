// Package loadgen is the heavy-traffic serving harness: an open-loop load
// generator that drives thousands of concurrent pipelined sessions against
// a model of the sharded storage tier and reports per-class fetch-latency
// SLOs (p50/p90/p99/p999 for cache hits, offloaded fetches, and raw
// fetches). Its Report is one scenario of the SLO record that `sophon-bench
// -load` writes (BENCH_pr7.json).
//
// The harness is a discrete-event simulation on virtual time, and the repo's
// only event-driven loop: arrivals, storage-core completions, and
// link-transfer completions are events on a single heap, so a run with
// 10,000 sessions over minutes of simulated load finishes in well under a
// second of wall time and is bit-reproducible from its seed. Arrival
// processes (Poisson or bursty) draw from per-session PCG streams using the
// same seeding idiom as internal/chaos.
//
// The server model is built from the tier's own parts. Admission is the
// accounting the live storage server runs (wfq.Budget: an in-flight byte
// budget, per-tenant weighted fair queues, and bounded queues that shed load
// with retry-after rejections instead of queueing without bound), one
// instance per shard where the live tier shares one; each shard's offload
// cores and link are the epoch engine's engine.Pool; latencies land in the
// registry's histogram type. Open-loop arrivals keep coming while the server
// sheds, which is exactly what exposes the bounded-p99-vs-collapse tradeoff
// the SLO report records.
package loadgen

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/wfq"
)

// class labels one of the three fetch paths a request can take.
type class int

const (
	// classHit is a shared-artifact-cache hit: served from the trainer-side
	// cache without touching the storage tier.
	classHit class = iota
	// classOffloaded is a fetch whose preprocessing prefix runs on a
	// storage core before the (smaller) artifact crosses the link.
	classOffloaded
	// classRaw is a fetch of untransformed bytes straight off the link.
	classRaw
	classCount
)

func (c class) String() string {
	switch c {
	case classHit:
		return "hit"
	case classOffloaded:
		return "offloaded"
	case classRaw:
		return "raw"
	default:
		return "unknown"
	}
}

// JobSpec describes one job profile: a group of identical open-loop
// sessions with a fetch-class mix. The mix is typically derived from a
// planned trace via SpecFromPlan.
type JobSpec struct {
	// Name labels the job in the report.
	Name string
	// Weight is the tenant's fair-share weight in the server's admission
	// queues (0 means 1).
	Weight float64
	// Sessions is the number of concurrent pipelined sessions.
	Sessions int
	// Rate is the per-session offered load in requests/second (finite, ≥ 0).
	Rate float64
	// Arrival selects the arrival process (Poisson or Bursty).
	Arrival ArrivalKind
	// Burst is the mean burst size for Bursty arrivals (ignored for
	// Poisson; finite values < 1 clamp to 1).
	Burst float64
	// Mix is the fetch-class probability vector [hit, offloaded, raw];
	// it is normalized internally, so any finite non-negative weights work.
	Mix [3]float64
	// OffloadedBytes and RawBytes are the mean artifact / raw sample sizes
	// crossing the link for the respective classes.
	OffloadedBytes int64
	RawBytes       int64
	// OffloadCPU is the mean storage-core CPU time per offloaded fetch.
	OffloadCPU time.Duration
}

// AdmissionSpec models the server-side admission controller.
type AdmissionSpec struct {
	// MaxInFlightBytes is the per-shard in-flight byte budget
	// (0 → defaultMaxInFlightBytes).
	MaxInFlightBytes int64
	// MaxQueuePerTenant bounds each tenant's admission queue per shard;
	// pushes beyond the bound are shed (0 → defaultMaxQueuePerTenant).
	MaxQueuePerTenant int
}

// Defaults for AdmissionSpec zero values.
const (
	defaultMaxInFlightBytes  = 64 << 20
	defaultMaxQueuePerTenant = 256
	// hitService is the modeled local service time of a cache hit.
	hitService = 30 * time.Microsecond
)

// Config configures one load-generation run.
type Config struct {
	// Seed drives every PCG stream in the run; same seed, same report.
	Seed uint64
	// Duration is the simulated time during which sessions offer load.
	// In-flight requests at the deadline are left a second window of the
	// same length to drain.
	Duration time.Duration
	// Jobs is the workload mix; at least one job with Sessions > 0.
	Jobs []JobSpec
	// Shards is the storage-server count (0 → 1).
	Shards int
	// CoresPerShard is the storage-CPU count per shard (0 → 1).
	CoresPerShard int
	// LinkBytesPerSec is the per-shard link bandwidth (positive, finite).
	LinkBytesPerSec float64
	// Admission models the server-side admission controller.
	Admission AdmissionSpec
}

// errBadConfig reports an invalid Config.
var errBadConfig = errors.New("loadgen: bad config")

// Report is the result of one run, shaped as one scenario of the SLO record:
// latencies in milliseconds, so records from different runs diff cleanly.
type Report struct {
	// Name labels the scenario in the record; Run leaves it to the caller.
	Name     string `json:"name"`
	Sessions int    `json:"sessions"`
	// Offered counts arrivals during the load window; Completed the
	// requests that finished (including post-deadline drain); Shed the
	// requests rejected by admission control.
	Offered   uint64 `json:"offered"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	// OfferedRPS and ThroughputRPS are Offered/Completed over Duration.
	OfferedRPS    float64 `json:"offered_rps"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// ShedRate is Shed/Offered.
	ShedRate float64 `json:"shed_rate"`
	// MaxQueueDepth is the high-water total admission-queue depth across
	// shards — bounded queues keep this (and p99) from growing without
	// limit under overload.
	MaxQueueDepth int `json:"max_queue_depth"`
	// Classes holds per-fetch-class latency distributions keyed
	// "hit" / "offloaded" / "raw".
	Classes map[string]*ClassReport `json:"classes"`
}

// ClassReport is the latency distribution of one fetch class.
type ClassReport struct {
	Count  uint64  `json:"count"`
	Shed   uint64  `json:"shed"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// event kinds.
const (
	evArrival = iota // next arrival for a session
	evCoreDone
	evXferDone
)

type event struct {
	at   time.Duration
	seq  uint64
	kind int
	// session index for evArrival; request for the others.
	session int
	req     *request
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

type request struct {
	arrived time.Duration
	class   class
	job     int
	bytes   int64
	cpu     time.Duration
	shard   int
}

// shardState models one storage server: its admission accounting, core
// pool, and outbound link.
type shardState struct {
	admission *wfq.Budget // a queued Item.Value is the *request
	cores     *engine.Pool
	link      *engine.Pool
}

type session struct {
	proc *arrivalProc
	rng  *rand.Rand // classification + shard choice + size jitter
	job  int
}

type sim struct {
	cfg      Config
	now      time.Duration
	seq      uint64
	events   eventHeap
	shards   []*shardState
	sessions []*session
	hists    [classCount]metrics.Histogram
	offered  uint64
	done     uint64
	shed     [classCount]uint64
	maxDepth int
}

// Run executes the load scenario and returns its report. Identical
// configs yield identical reports.
func Run(cfg Config) (*Report, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: Duration must be > 0", errBadConfig)
	}
	if cfg.LinkBytesPerSec <= 0 || !finite(cfg.LinkBytesPerSec) {
		return nil, fmt.Errorf("%w: LinkBytesPerSec must be positive and finite", errBadConfig)
	}
	total := 0
	for i := range cfg.Jobs {
		job := &cfg.Jobs[i]
		if job.Sessions < 0 || job.Rate < 0 || !finite(job.Rate) ||
			!finite(job.Burst) || !finite(job.Mix[0]) || !finite(job.Mix[1]) || !finite(job.Mix[2]) {
			return nil, fmt.Errorf("%w: job %q needs non-negative sessions and rate, and a finite rate, burst and mix", errBadConfig, job.Name)
		}
		total += job.Sessions
	}
	if total == 0 {
		return nil, fmt.Errorf("%w: no sessions", errBadConfig)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.CoresPerShard <= 0 {
		cfg.CoresPerShard = 1
	}
	if cfg.Admission.MaxInFlightBytes <= 0 {
		cfg.Admission.MaxInFlightBytes = defaultMaxInFlightBytes
	}
	if cfg.Admission.MaxQueuePerTenant <= 0 {
		cfg.Admission.MaxQueuePerTenant = defaultMaxQueuePerTenant
	}

	s := &sim{cfg: cfg}
	s.shards = make([]*shardState, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shardState{
			admission: wfq.NewBudget(cfg.Admission.MaxInFlightBytes, cfg.Admission.MaxQueuePerTenant),
			cores:     engine.NewPool(cfg.CoresPerShard),
			link:      engine.NewPool(1),
		}
	}

	// One PCG stream pair per session: stream 2k for arrivals, 2k+1 for
	// classification — the chaos idiom (seed fixed, stream index varies).
	for j := range cfg.Jobs {
		job := &cfg.Jobs[j]
		if job.Rate <= 0 {
			continue
		}
		for k := 0; k < job.Sessions; k++ {
			idx := len(s.sessions)
			sess := &session{
				proc: newArrivalProc(cfg.Seed, uint64(idx)*2, job.Arrival, job.Rate, job.Burst),
				rng:  rand.New(rand.NewPCG(cfg.Seed, uint64(idx)*2+1)),
				job:  j,
			}
			s.sessions = append(s.sessions, sess)
			s.schedule(sess.proc.next(), evArrival, idx, nil)
		}
	}
	if len(s.sessions) == 0 {
		return nil, fmt.Errorf("%w: no sessions with positive rate", errBadConfig)
	}

	horizon := 2 * cfg.Duration

	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*event)
		if ev.at > horizon {
			break
		}
		s.now = ev.at
		switch ev.kind {
		case evArrival:
			s.onArrival(ev.session)
		case evCoreDone:
			s.startXfer(s.shards[ev.req.shard], ev.req)
		case evXferDone:
			s.onXferDone(ev.req)
		}
	}

	return s.report(total), nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// schedule queues an event for virtual time at.
func (s *sim) schedule(at time.Duration, kind, sessionIdx int, req *request) {
	ev := &event{at: at, seq: s.seq, kind: kind, session: sessionIdx, req: req}
	s.seq++
	heap.Push(&s.events, ev)
}

// classify draws the fetch class from the job's normalized mix.
func classify(rng *rand.Rand, mix [3]float64) class {
	sum := mix[0] + mix[1] + mix[2]
	if sum <= 0 {
		return classRaw
	}
	r := rng.Float64() * sum
	if r < mix[0] {
		return classHit
	}
	if r < mix[0]+mix[1] {
		return classOffloaded
	}
	return classRaw
}

func (s *sim) onArrival(sessionIdx int) {
	sess := s.sessions[sessionIdx]
	job := &s.cfg.Jobs[sess.job]

	// Next arrival first, so the open loop never stalls on a slow server.
	if next := sess.proc.next(); s.now+next <= s.cfg.Duration {
		s.schedule(s.now+next, evArrival, sessionIdx, nil)
	}
	if s.now > s.cfg.Duration {
		return
	}
	s.offered++

	class := classify(sess.rng, job.Mix)
	if class == classHit {
		// Served from the trainer-side shared cache; never touches the
		// storage tier or its admission queues.
		s.hists[classHit].Observe(hitService)
		s.done++
		return
	}

	req := &request{
		arrived: s.now,
		class:   class,
		job:     sess.job,
		shard:   sess.rng.IntN(s.cfg.Shards),
	}
	if class == classOffloaded {
		req.bytes = job.OffloadedBytes
		req.cpu = job.OffloadCPU
	} else {
		req.bytes = job.RawBytes
	}
	if req.bytes <= 0 {
		req.bytes = 1
	}

	sh := s.shards[req.shard]
	// Admission: straight through when the budget fits and no one is
	// queued; otherwise wait in the tenant's weighted queue, unless it is
	// full — then the request is shed (the server answers retry-after).
	switch verdict, item := sh.admission.Admit(uint64(req.job), job.Weight, req.bytes); verdict {
	case wfq.Admitted:
		s.startService(sh, req)
	case wfq.Shed:
		s.shed[class]++
	case wfq.Queued:
		item.Value = req
		depth := 0
		for _, other := range s.shards {
			depth += other.admission.Queued()
		}
		s.maxDepth = max(s.maxDepth, depth)
	}
}

// startService runs an admitted request: offloaded work takes its turn on
// the shard's cores first, raw fetches go straight to the link. Requests
// are admitted in time order, so scheduling the core here is the FIFO core
// queue.
func (s *sim) startService(sh *shardState, req *request) {
	if req.class == classOffloaded && req.cpu > 0 {
		s.schedule(sh.cores.Schedule(s.now, req.cpu), evCoreDone, 0, req)
		return
	}
	s.startXfer(sh, req)
}

// startXfer puts the request's bytes on the shard's FIFO link.
func (s *sim) startXfer(sh *shardState, req *request) {
	xfer := time.Duration(float64(req.bytes) / s.cfg.LinkBytesPerSec * float64(time.Second))
	s.schedule(sh.link.Schedule(s.now, xfer), evXferDone, 0, req)
}

func (s *sim) onXferDone(req *request) {
	sh := s.shards[req.shard]
	s.hists[req.class].Observe(s.now - req.arrived)
	s.done++
	// Admit queued requests in weighted-fair order while the budget fits.
	sh.admission.Release(req.bytes, func(it *wfq.Item) { s.startService(sh, it.Value.(*request)) })
}

func (s *sim) report(sessions int) *Report {
	var shedTotal uint64
	for _, c := range s.shed {
		shedTotal += c
	}
	rep := &Report{
		Sessions:      sessions,
		Offered:       s.offered,
		Completed:     s.done,
		Shed:          shedTotal,
		MaxQueueDepth: s.maxDepth,
		Classes:       make(map[string]*ClassReport, classCount),
	}
	secs := s.cfg.Duration.Seconds()
	rep.OfferedRPS = float64(s.offered) / secs
	rep.ThroughputRPS = float64(s.done) / secs
	if s.offered > 0 {
		rep.ShedRate = float64(shedTotal) / float64(s.offered)
	}
	for c := class(0); c < classCount; c++ {
		h := &s.hists[c]
		if h.Count() == 0 && s.shed[c] == 0 {
			continue
		}
		rep.Classes[c.String()] = &ClassReport{
			Count:  h.Count(),
			Shed:   s.shed[c],
			P50Ms:  ms(h.Quantile(0.50)),
			P90Ms:  ms(h.Quantile(0.90)),
			P99Ms:  ms(h.Quantile(0.99)),
			P999Ms: ms(h.Quantile(0.999)),
			MaxMs:  ms(h.Max()),
			MeanMs: ms(h.Mean()),
		}
	}
	return rep
}
