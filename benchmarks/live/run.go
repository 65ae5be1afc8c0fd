package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cluster"
	"repro/internal/imaging"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/prefetch"
	"repro/internal/prepsched"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

// config is one invocation's knobs; the driver sets Seed, Seconds and the
// workload, tests shrink the rest.
type config struct {
	Seed         uint64
	Seconds      float64 // timed phase length
	N            int     // tests only; 0: each workload's own size
	MinEpochs    int     // timed epochs run even when Seconds has passed
	Setups       int     // untraced runs set up this many times and report the median
	Sizing       sizing
	AssertRegime bool      // a workload outside its regime fails the run instead of warning
	Log          io.Writer // human-readable report
}

const checkSamples = 64

// serverSnap is a point-in-time copy of the monotone server counters.
type serverSnap struct {
	sent, cpuNanos, ops, served, prefixServed, prefixSaved, shed uint64
}

func snapServers(cs []*storage.Counters) []serverSnap {
	out := make([]serverSnap, len(cs))
	for i, c := range cs {
		out[i] = serverSnap{c.BytesSent.Load(), c.CPUNanos.Load(), c.OpsExecuted.Load(), c.SamplesServed.Load(),
			c.PrefixServed.Load(), c.PrefixBytesSaved.Load(), c.ShedLoad.Load()}
	}
	return out
}

func (a serverSnap) plus(b serverSnap) serverSnap {
	return serverSnap{a.sent + b.sent, a.cpuNanos + b.cpuNanos, a.ops + b.ops, a.served + b.served,
		a.prefixServed + b.prefixServed, a.prefixSaved + b.prefixSaved, a.shed + b.shed}
}

func (a serverSnap) minus(b serverSnap) serverSnap {
	return serverSnap{a.sent - b.sent, a.cpuNanos - b.cpuNanos, a.ops - b.ops, a.served - b.served,
		a.prefixServed - b.prefixServed, a.prefixSaved - b.prefixSaved, a.shed - b.shed}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phase is one trainer's timed epochs and everything counted around them.
// Counters are summed epoch by epoch, so two trainers may take turns against
// the same servers and each still sees only its own work.
type phase struct {
	Epochs    []trainsim.EpochReport
	Wall      time.Duration // Σ timed epoch durations
	CPU       time.Duration // process user+sys over the timed epochs
	Attempted int
	Failed    int
	Servers   []serverSnap // per-shard counter deltas
	Prefetch  prefetch.MetricsSnapshot
	Prep      prepsched.MetricsSnapshot
	Retries   int64
	// Traced phases only.
	AllocBytes, Mallocs, GCPauseNs uint64
	GCCycles                       uint32
	HeapPeak                       uint64
	BytePool, F32Pool              bufpool.StatsSnapshot
}

func (p *phase) samples() int {
	n := 0
	for _, e := range p.Epochs {
		n += e.Samples
	}
	return n
}

func (p *phase) sent() uint64 {
	var n uint64
	for _, s := range p.Servers {
		n += s.sent
	}
	return n
}

func (p *phase) epochSeconds() []float64 {
	out := make([]float64, len(p.Epochs))
	for i, e := range p.Epochs {
		out[i] = e.Duration.Seconds()
	}
	return out
}

func (p *phase) samplesPerS(n int) float64 { return float64(n) / quantile(p.epochSeconds(), 0.5) }

// session is one trainer attached to the bed, warmed up, accumulating a
// phase. rec non-nil makes it the traced one.
type session struct {
	b      *bed
	tr     *trainsim.Trainer
	client trainsim.StorageClient // the untraced client underneath
	rec    *recorder
	p      phase
	pf0    prefetch.MetricsSnapshot
	ps0    prepsched.MetricsSnapshot
	epoch  *uint64 // last epoch number used, shared by the bed's sessions
}

// open builds a trainer and runs its warm-up epoch, which is discarded.
func (b *bed) open(rec *recorder, epoch *uint64) (*session, error) {
	s := &session{b: b, rec: rec, epoch: epoch}
	tcfg := b.trainerConfig()
	tcfg.DialClient = func() (trainsim.StorageClient, error) {
		c, err := b.dial()
		if err != nil {
			return nil, err
		}
		s.client = c
		if rec != nil {
			return traceClient(c, rec), nil
		}
		return c, nil
	}
	if rec != nil {
		tcfg.Clock = tracedClock{Clock: simclock.Real(), rec: rec}
	}
	tr, err := trainsim.New(tcfg)
	if err != nil {
		return nil, err
	}
	s.tr = tr
	*epoch++
	if _, err := tr.RunEpoch(*epoch, b.plan, nil); err != nil {
		tr.Close()
		return nil, fmt.Errorf("warm-up epoch: %w", err)
	}
	s.pf0, s.ps0 = tr.PrefetchMetrics().Snapshot(), tr.PrepMetrics().Snapshot()
	s.p.Servers = make([]serverSnap, len(b.counters()))
	return s, nil
}

// timedEpoch runs one epoch into the session's phase. An epoch that returns
// an error counts all its samples failed; ok is then false and the session
// must not be used again.
func (s *session) timedEpoch(log io.Writer) (ok bool, err error) {
	p, n := &s.p, s.tr.N()
	*s.epoch++
	epoch := *s.epoch
	var m0, m1 runtime.MemStats
	var bp0, fp0 bufpool.StatsSnapshot
	end := func() {}
	if s.rec != nil {
		runtime.ReadMemStats(&m0)
		bp0, fp0 = bufpool.ByteStats(), bufpool.Float32Stats()
		end = s.rec.beginEpoch()
	}
	before := snapServers(s.b.counters())
	cpu0 := processCPU()
	rep, runErr := s.tr.RunEpoch(epoch, s.b.plan, nil)
	p.CPU += processCPU() - cpu0
	end()
	for i, after := range snapServers(s.b.counters()) {
		p.Servers[i] = p.Servers[i].plus(after.minus(before[i]))
	}
	if s.rec != nil {
		runtime.ReadMemStats(&m1)
		bp1, fp1 := bufpool.ByteStats(), bufpool.Float32Stats()
		p.AllocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.Mallocs += m1.Mallocs - m0.Mallocs
		p.GCPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		p.GCCycles += m1.NumGC - m0.NumGC
		p.HeapPeak = max(p.HeapPeak, m1.HeapInuse)
		p.BytePool.Gets += bp1.Gets - bp0.Gets
		p.BytePool.Misses += bp1.Misses - bp0.Misses
		p.F32Pool.Gets += fp1.Gets - fp0.Gets
		p.F32Pool.Misses += fp1.Misses - fp0.Misses
	}
	p.Attempted += n
	if runErr != nil {
		fmt.Fprintf(log, "  epoch %d failed: %v\n", epoch, runErr)
		p.Failed += n
		return false, nil
	}
	if rep.Samples+rep.Failed != n {
		return false, fmt.Errorf("epoch %d: %d samples + %d failed != %d", epoch, rep.Samples, rep.Failed, n)
	}
	p.Failed += rep.Failed
	p.Wall += rep.Duration
	p.Epochs = append(p.Epochs, rep)
	return true, nil
}

// finish closes the trainer and returns the phase, after checking that the
// trainer and the servers agree on the bytes moved.
func (s *session) finish(log io.Writer) (*phase, error) {
	p := &s.p
	pf, ps := s.tr.PrefetchMetrics().Snapshot(), s.tr.PrepMetrics().Snapshot()
	p.Prefetch = prefetch.MetricsSnapshot{Issued: pf.Issued - s.pf0.Issued, StagedPeakBytes: pf.StagedPeakBytes,
		BudgetStalls: pf.BudgetStalls - s.pf0.BudgetStalls, HorizonStalls: pf.HorizonStalls - s.pf0.HorizonStalls}
	p.Prep = prepsched.MetricsSnapshot{Light: ps.Light - s.ps0.Light, Heavy: ps.Heavy - s.ps0.Heavy,
		OwnPops: ps.OwnPops - s.ps0.OwnPops, Steals: ps.Steals - s.ps0.Steals, Stalls: ps.Stalls - s.ps0.Stalls}
	if sc, ok := s.client.(*cluster.ShardedClient); ok {
		for shard := 0; shard < s.b.wl.Shards; shard++ {
			if rc, ok := sc.Shard(shard).(*storage.ReconnectingClient); ok {
				p.Retries += rc.Retries()
			}
		}
	}
	s.tr.Close()
	if len(p.Epochs) == 0 {
		return nil, fmt.Errorf("no timed epoch completed")
	}
	fmt.Fprintf(log, "  timed epochs (s): %.3f\n", p.epochSeconds())
	// Every frame a server sends during a timed epoch is a fetch response,
	// and the client charges each response's whole frame to its samples.
	var fetched uint64
	for _, e := range p.Epochs {
		fetched += uint64(e.BytesFetched)
	}
	if p.Failed == 0 && fetched != p.sent() {
		return nil, fmt.Errorf("trainer counted %d fetched bytes, servers sent %d", fetched, p.sent())
	}
	return p, nil
}

// measure runs the sessions' timed epochs in turn — one session for the
// end-to-end run; the untraced and the traced one alternating, so that slow
// drift of the host hits both alike — until seconds have passed and each has
// cfg.MinEpochs epochs, or one fails.
func measure(cfg config, sessions ...*session) ([]*phase, error) {
	defer func() {
		for _, s := range sessions {
			s.tr.Close() // no-op for a session finish already closed
		}
	}()
	runtime.GC() // set-up's garbage is collected before the clock starts, not during
	start := time.Now()
	for alive := true; alive && (len(sessions[0].p.Epochs) < cfg.MinEpochs || time.Since(start).Seconds() < cfg.Seconds); {
		for _, s := range sessions {
			ok, err := s.timedEpoch(cfg.Log)
			if err != nil {
				return nil, err
			}
			alive = alive && ok
		}
	}
	var phases []*phase
	for _, s := range sessions {
		p, err := s.finish(cfg.Log)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
	}
	return phases, nil
}

// directive is the fetch directive the trainer issues for sample i: the
// plan's cut, or for a raw sample the packed fidelity drop.
func directive(plan *policy.Plan, i int) (packed, cut, drop int) {
	if plan == nil {
		return 0, 0, 0
	}
	if cut = plan.Split(i); cut != 0 {
		return cut, cut, 0
	}
	drop = plan.FidelityOf(i)
	return storage.PackDirective(0, drop), 0, drop
}

// localInput is the stored object the all-local reference run starts from:
// the object itself, or for withheld scans its imaging.SlicePrefix.
func localInput(raw []byte, drop int) ([]byte, error) {
	if drop == 0 || !imaging.IsProgressive(raw) {
		return raw, nil
	}
	_, _, _, scans, _, err := imaging.ProgressiveInfo(raw)
	if err != nil {
		return nil, err
	}
	return imaging.SlicePrefix(raw, max(scans-drop, 1))
}

// checkArtifacts fetches checkSamples fixed samples through the workload's
// own client at the plan's directive, finishes them locally, and requires
// each tensor bit-identical to the all-local pipeline. It returns how many
// mismatched and a digest over the tensors it received.
func (b *bed) checkArtifacts() (checked, mismatched int, digest uint64, err error) {
	client, err := b.dial()
	if err != nil {
		return 0, 0, 0, err
	}
	defer client.Close()
	const epoch = 2
	n := b.store.N()
	h := fnv.New64a()
	for lo := 0; lo < checkSamples; lo += fetchBatchSize {
		var ids []uint32
		var packed, cuts, drops []int
		for k := lo; k < lo+fetchBatchSize && k < checkSamples; k++ {
			id := k * n / checkSamples
			p, cut, drop := directive(b.plan, id)
			ids, packed, cuts, drops = append(ids, uint32(id)), append(packed, p), append(cuts, cut), append(drops, drop)
		}
		res, err := client.FetchBatch(context.Background(), ids, packed, epoch)
		if err != nil {
			return checked, mismatched, 0, err
		}
		for k, r := range res {
			if r.Err != nil {
				return checked, mismatched, 0, r.Err
			}
			seed := pipeline.Seed{Job: jobID, Epoch: epoch, Sample: uint64(ids[k])}
			got, err := b.pipe.RunRange(r.Artifact, cuts[k], b.pipe.Len(), seed)
			if err != nil {
				return checked, mismatched, 0, err
			}
			raw, err := b.store.Get(ids[k])
			if err != nil {
				return checked, mismatched, 0, err
			}
			if raw, err = localInput(raw, drops[k]); err != nil {
				return checked, mismatched, 0, err
			}
			want, err := b.pipe.Run(raw, seed)
			if err != nil {
				return checked, mismatched, 0, err
			}
			gb, wb := got.Tensor.Marshal(), want.Tensor.Marshal()
			got.Release()
			want.Release()
			h.Write(gb)
			checked++
			if !bytes.Equal(gb, wb) {
				mismatched++
			}
		}
	}
	return checked, mismatched, h.Sum64(), nil
}

// model is the paper's four-term epoch model on measured quantities, per
// timed epoch, with the utilisations the regime check reads.
type model struct {
	EpochS                float64 // median timed epoch
	TG, TNet, TCS, TCC    float64 // seconds per epoch
	LinkUtil, LinkUtilMin float64 // busiest and idlest link
	ExecUtil, ComputeUtil float64
	LinkBusyS             float64 // Σ over links, whole phase
	Binding               string
	BindingShare          float64
	ExecCPUS, LocalCPUS   float64 // whole phase
	GPUBusyS              float64 // whole phase
	ShardBytesMaxOverMean float64
	OffloadedFrac         float64
}

func (b *bed) modelOf(p *phase) model {
	var m model
	epochs := float64(len(p.Epochs))
	// The median epoch, not the mean: one epoch stretched by a scheduling
	// hiccup would otherwise read as idle time on every resource.
	m.EpochS = quantile(p.epochSeconds(), 0.5)
	offloaded := 0
	for _, e := range p.Epochs {
		m.GPUBusyS += e.GPUBusy.Seconds()
		m.LocalCPUS += e.LocalCPU.Seconds()
		offloaded += e.Offloaded
	}
	m.OffloadedFrac = float64(offloaded) / float64(p.samples())
	m.TG = m.GPUBusyS / epochs
	m.TCC = m.LocalCPUS / computeCores / epochs
	m.ComputeUtil = m.TCC / m.EpochS
	rate := unshapedBps
	if b.wl.LinkMbps > 0 {
		rate = netsim.Mbps(b.wl.LinkMbps)
	}
	m.LinkUtilMin = 1
	var sentMax, sentSum float64
	for _, s := range p.Servers {
		busy := float64(s.sent) / rate
		exec := time.Duration(s.cpuNanos).Seconds()
		m.LinkBusyS += busy
		m.ExecCPUS += exec
		m.TNet = max(m.TNet, busy/epochs)
		m.TCS = max(m.TCS, exec/float64(b.wl.Cores)/epochs)
		m.LinkUtilMin = min(m.LinkUtilMin, busy/epochs/m.EpochS)
		sentMax, sentSum = max(sentMax, float64(s.sent)), sentSum+float64(s.sent)
	}
	m.LinkUtil, m.ExecUtil = m.TNet/m.EpochS, m.TCS/m.EpochS
	m.ShardBytesMaxOverMean = sentMax / (sentSum / float64(len(p.Servers)))
	seconds := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	terms := policy.EpochModel{TG: seconds(m.TG), TCC: seconds(m.TCC), TCS: seconds(m.TCS), TNet: seconds(m.TNet)}
	m.Binding, m.BindingShare = terms.Dominant(), terms.Predicted().Seconds()/m.EpochS
	return m
}

// regime reports whether the workload sits where it was put: the intended
// term is the largest and its resource is nearly saturated.
func (b *bed) regime(m model) (ok bool, note string) {
	var util, floor float64
	var name string
	switch b.wl.Binding {
	case "TNet":
		util, floor, name = m.LinkUtil, 0.9, "netsim.link_util"
	case "TCC":
		util, floor, name = m.ComputeUtil, 0.85, "trainsim.compute_util"
	case "TCS":
		util, floor, name = m.ExecUtil, 0.9, "storage.exec_util"
	}
	note = fmt.Sprintf("binding %s (want %s) at %.2f of the epoch; %s %.3f (floor %.2f); T_G %.3fs T_Net %.3fs T_CS %.3fs T_CC %.3fs, epoch %.3fs",
		m.Binding, b.wl.Binding, m.BindingShare, name, util, floor, m.TG, m.TNet, m.TCS, m.TCC, m.EpochS)
	return m.Binding == b.wl.Binding && util >= floor, note
}

// meanQuality is the plan-wide mean delivered quality; 1 where no scans are
// withheld.
func (b *bed) meanQuality() float64 {
	if b.plan == nil || b.ladder == nil {
		return 1
	}
	return b.plan.MeanQuality(*b.ladder)
}

// quantile is the linear-interpolated q-quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// table is an ordered list of named metrics.
type table []entry

type entry struct {
	Name, Unit string
	Value      float64
}

func (t *table) add(name, unit string, v float64) { *t = append(*t, entry{name, unit, v}) }

// result is one (workload, trace mode) run.
type result struct {
	Correct    bool
	Attempted  int
	Failed     int
	PlanDigest uint64
	Metrics    table
	Spans      []span // traced runs only
}

// runWorkload sets the workload up, checks it, and measures it: end-to-end
// metrics with tracing off, or the per-layer table from a traced phase.
func runWorkload(cfg config, wl workload, traced bool) (result, error) {
	res := result{Correct: true}
	if cfg.N > 0 {
		wl.N = cfg.N
	}
	goroutines := runtime.NumGoroutine()

	setups := cfg.Setups
	if traced {
		setups = 1 // setup_s is an end-to-end metric; the traced run needs only a bed
	}
	var b *bed
	var setupS []float64
	var digest uint64
	for k := 0; k < setups; k++ {
		if b != nil {
			b.close()
		}
		var err error
		if b, err = setUp(wl, cfg.Sizing, cfg.Seed); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, b.times.total().Seconds())
		d := planDigest(b.plan)
		if k > 0 && d != digest {
			b.close()
			return res, fmt.Errorf("plan digest %016x differs from the previous set-up's %016x", d, digest)
		}
		digest = d
	}
	defer b.close()
	res.PlanDigest = digest
	planName := "none (every sample raw, all ops local)"
	if b.plan != nil {
		planName = b.plan.String()
	}
	fmt.Fprintf(cfg.Log, "  plan %s digest %016x; set-up build %.2fs launch %.3fs profile %.2fs plan %.3fs\n",
		planName, digest, b.times.Build.Seconds(), b.times.Launch.Seconds(), b.times.Profile.Seconds(), b.times.Plan.Seconds())

	checked, mismatched, artDigest, err := b.checkArtifacts()
	if err != nil {
		return res, fmt.Errorf("artifact check: %w", err)
	}
	fmt.Fprintf(cfg.Log, "  artifact check: %d/%d bit-identical to the local pipeline, digest %016x\n", checked-mismatched, checked, artDigest)
	res.Attempted, res.Failed = checked, mismatched

	epoch := uint64(1) // epoch 1 was the profiling epoch
	plain, err := b.open(nil, &epoch)
	if err != nil {
		return res, err
	}
	sessions := []*session{plain}
	if traced {
		rec := newRecorder()
		ts, err := b.open(rec, &epoch)
		if err != nil {
			plain.tr.Close()
			return res, err
		}
		sessions = append(sessions, ts)
	}
	phases, err := measure(cfg, sessions...)
	if err != nil {
		return res, err
	}
	for _, p := range phases {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
	}
	p := phases[len(phases)-1]
	m := b.modelOf(p)
	if !traced {
		res.Metrics = endToEnd(b, p, quantile(setupS, 0.5))
	} else {
		replayed, err := b.layerReplay()
		if err != nil {
			return res, fmt.Errorf("layer replay: %w", err)
		}
		desS, desMs, err := b.simulate(cfg.Seed)
		if err != nil {
			return res, fmt.Errorf("engine: %w", err)
		}
		b.close()
		rec := sessions[1].rec
		if res.Metrics, err = perLayer(cfg, b, phases[0], p, rec, m, replayed, desS, desMs, leakedGoroutines(goroutines)); err != nil {
			return res, err
		}
		res.Spans = rec.spans
	}
	ok, note := b.regime(m)
	if !ok {
		note = "REGIME DRIFT: " + note
		if cfg.AssertRegime {
			res.Correct = false
		}
	}
	fmt.Fprintf(cfg.Log, "  regime: %s\n", note)
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// leakedGoroutines waits briefly for server and client goroutines to unwind
// and returns how many more are left than before set-up.
func leakedGoroutines(before int) int {
	for wait := 0; wait < 50 && runtime.NumGoroutine() > before; wait++ {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-before, 0)
}

// endToEnd assembles what a user of the system sees.
func endToEnd(b *bed, p *phase, setupS float64) table {
	var t table
	n := b.store.N()
	samples := float64(p.samples())
	t.add("samples_per_s", "1/s", p.samplesPerS(n))
	t.add("wire_bytes_per_sample", "B", float64(p.sent())/samples)
	t.add("mean_quality", "ratio", b.meanQuality())
	t.add("ok_frac", "ratio", 1-float64(p.Failed)/float64(p.Attempted))
	t.add("setup_s", "s", setupS)
	return t
}
