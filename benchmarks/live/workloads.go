package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/compressor"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/imaging"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/prepsched"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/trainsim"
)

// workload pins one live trainer ↔ wire ↔ storage configuration to one
// binding term of the paper's epoch model (README.md, "Workloads").
type workload struct {
	Name string
	// N is the dataset size. It differs per encoding because a progressive
	// container costs ≈10× an SJPG object to encode and set-up is repeated.
	N           int
	Progressive bool    // SJPR store instead of SJPG
	Shards      int     // 1: one TCP-loopback server; >1: cluster.Launch over pipes
	LinkMbps    float64 // per server; 0 leaves the link unshaped
	Cores       int     // storage cores per server
	Clairvoyant bool    // Lookahead=2 + variance-aware prep; false: reactive defaults
	Policy      string  // none | sophon | alloff | sophon+fidelity
	Binding     string  // the model term that must bind: TNet, TCC or TCS
}

var workloads = []workload{
	{Name: "link_sophon", N: 192, Shards: 1, LinkMbps: 100, Cores: 2, Policy: "sophon", Binding: "TNet"},
	{Name: "cpu_local", N: 192, Shards: 1, Cores: 2, Clairvoyant: true, Policy: "none", Binding: "TCC"},
	{Name: "storage_alloff", N: 192, Shards: 1, Cores: 1, Policy: "alloff", Binding: "TCS"},
	{Name: "sharded_progressive", N: 64, Progressive: true, Shards: 2, LinkMbps: 16, Cores: 1, Clairvoyant: true,
		Policy: "sophon+fidelity", Binding: "TNet"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizing is the synthetic dataset and trainer shape every workload shares.
// The 160–640 px / 128 crop set puts ≈84 % of samples above their post-crop
// size (the paper's OpenImages regime); the repository's default 80–480/224
// set offloads almost nothing and cannot exercise a plan.
type sizing struct {
	MinDim, MaxDim, Crop int
}

var paperSizing = sizing{MinDim: 160, MaxDim: 640, Crop: 128}

const (
	jobID          = 1
	workers        = 2
	computeCores   = 2
	batchSize      = 32
	fetchBatchSize = 8
	qualityFloor   = 0.90
	meanQualFloor  = 0.97
)

// bytesPerPixel is the size model the input generator stratifies by: stored
// SJPG bytes per source pixel at texture detail 0.05, 0.15 … 0.95, and the
// ratio of an SJPR container to the SJPG object of the same image, both
// measured once on the seed commit. They only steer which synthetic sets are
// accepted, so they stay fixed even if a later codec changes the real sizes.
var bytesPerPixel = [10]float64{0.3503, 0.4872, 0.5760, 0.6292, 0.6745, 0.7079, 0.7398, 0.7703, 0.7971, 0.8231}

const progressiveBytesRatio = 1.29

func estStoredBytes(m dataset.ImageMeta, progressive bool) float64 {
	x := min(max(m.Detail*10-0.5, 0), float64(len(bytesPerPixel)-1))
	i := min(int(x), len(bytesPerPixel)-2)
	f := x - float64(i)
	est := float64(m.W*m.H) * (bytesPerPixel[i]*(1-f) + bytesPerPixel[i+1]*f)
	if progressive {
		est *= progressiveBytesRatio
	}
	return est
}

// setStats are the aggregates the timed metrics depend on: pixels drive CPU,
// stored bytes drive raw traffic, and bytes capped at the post-crop size
// drive planned traffic — over the whole set and over shard 0 of the
// two-shard placement, whose share decides which link finishes last.
type setStats struct {
	area, stored, capped, shard0Capped float64
}

func statsOf(set *dataset.ImageSet, sz sizing, progressive bool) setStats {
	capBytes := float64(pipeline.ImageWireSize(sz.Crop, sz.Crop))
	m2, _ := cluster.NewShardMap(2) // two shards is always a valid map
	var s setStats
	var n0 float64
	for i := 0; i < set.N(); i++ {
		m, _ := set.Meta(i) // i is in range
		stored := estStoredBytes(m, progressive)
		s.area += float64(m.W * m.H)
		s.stored += stored
		s.capped += min(stored, capBytes)
		if m2.ShardOf(uint32(i)) == 0 {
			s.shard0Capped += min(stored, capBytes)
			n0++
		}
	}
	n := float64(set.N())
	s.area /= n
	s.stored /= n
	s.capped /= n
	s.shard0Capped /= max(n0, 1)
	return s
}

// pickDataset draws the run's synthetic set from the seed. A plain draw of a
// few hundred images moves mean pixels and bytes by several percent from
// seed to seed, which would read as run-to-run noise in every timed metric;
// so candidate sub-seeds are tried in order and the first whose aggregates
// sit within stratifyTol of the generator's population values is used. The
// choice is a pure function of (seed, n, sizing, encoding).
func pickDataset(seed uint64, n int, sz sizing, progressive bool) (*dataset.ImageSet, error) {
	const stratifyTol = 0.004
	opts := dataset.SyntheticOptions{Name: "live", N: 20000, Seed: 0x5eed, MinDim: sz.MinDim, MaxDim: sz.MaxDim}
	ref, err := dataset.NewSyntheticImageSet(opts)
	if err != nil {
		return nil, err
	}
	want := statsOf(ref, sz, progressive)
	near := func(got, want float64) bool { return math.Abs(got-want) <= stratifyTol*want }
	opts.N = n
	for sub := uint64(0); sub < 1<<20; sub++ {
		opts.Seed = seed<<20 | sub
		set, err := dataset.NewSyntheticImageSet(opts)
		if err != nil {
			return nil, err
		}
		got := statsOf(set, sz, progressive)
		if near(got.area, want.area) && near(got.stored, want.stored) && near(got.capped, want.capped) && near(got.shard0Capped, want.capped) {
			return set, nil
		}
	}
	return nil, fmt.Errorf("no stratified dataset for seed %d at n=%d", seed, n)
}

// buildStore materialises the set the way the repository does: SJPG through
// storage.FromImageSet, SJPR through compressor.MaterializeProgressive at
// full scan depth. Both run on one core.
func buildStore(set *dataset.ImageSet, progressive bool) (*storage.Store, error) {
	if !progressive {
		return storage.FromImageSet(set)
	}
	blobs, _, err := compressor.MaterializeProgressive(set, imaging.MaxScans)
	if err != nil {
		return nil, err
	}
	return storage.NewStore(set.Name(), blobs)
}

// opCostNs is the fixed cost table plans are computed from, in ns per source
// pixel (decode) and per output pixel (the rest), so that a plan is a pure
// function of the seed and not of this run's measured op times. Decoding a
// progressive container costs 1.4× an SJPG decode.
var opCostNs = [dataset.OpCount]float64{20, 14, 0.8, 2.9, 2.5}

const progressiveDecodeCostNs = 28

func costTrace(measured *dataset.Trace, crop int, progressive bool) *dataset.Trace {
	decodeNs := opCostNs[0]
	if progressive {
		decodeNs = progressiveDecodeCostNs
	}
	out := &dataset.Trace{Name: measured.Name + "+fixed-costs", Records: append([]dataset.Record(nil), measured.Records...)}
	for i := range out.Records {
		r := &out.Records[i]
		r.OpTimes[0] = time.Duration(decodeNs * float64(r.Width*r.Height))
		for k := 1; k < dataset.OpCount; k++ {
			r.OpTimes[k] = time.Duration(opCostNs[k] * float64(crop*crop))
		}
	}
	return out
}

// setupTimes splits set-up; their sum is the end-to-end setup_s.
type setupTimes struct {
	Build, Launch, Profile, Plan time.Duration
}

func (t setupTimes) total() time.Duration { return t.Build + t.Launch + t.Profile + t.Plan }

// bed is one workload set up and serving: store, servers, the stage-2 trace
// and the plan.
type bed struct {
	wl       workload
	sz       sizing
	store    *storage.Store
	pipe     *pipeline.Pipeline
	server   *storage.Server     // Shards == 1
	addr     string              // Shards == 1
	bucket   *netsim.TokenBucket // Shards == 1 && LinkMbps > 0
	tier     *cluster.Cluster    // Shards > 1
	measured *dataset.Trace      // stage-2 trace with this run's op times
	plan     *policy.Plan        // nil: no offloading
	ladder   *policy.FidelityModel
	env      policy.Env
	classify func(sample int) prepsched.Class
	times    setupTimes
}

func (b *bed) close() {
	if b.server != nil {
		b.server.Close()
	}
	if b.tier != nil {
		b.tier.Close()
	}
}

// counters returns every server's counters, indexed by shard.
func (b *bed) counters() []*storage.Counters {
	if b.tier != nil {
		return b.tier.Counters()
	}
	return []*storage.Counters{b.server.Counters()}
}

// dial opens the workload's own client: one plain session to the single
// server, or the sharded fan-out with per-shard reconnecting sessions.
func (b *bed) dial() (trainsim.StorageClient, error) {
	opts := storage.ClientOptions{JobID: jobID}
	if b.tier != nil {
		return b.tier.NewShardedClient(opts, 3, 10*time.Millisecond, false)
	}
	return storage.DialWithOptions(b.addr, opts)
}

// trainerConfig is the trainer every phase of the workload runs; a traced
// phase swaps in its own DialClient and Clock.
func (b *bed) trainerConfig() trainsim.Config {
	cfg := trainsim.Config{
		DialClient:     b.dial,
		Workers:        workers,
		ComputeCores:   computeCores,
		Pipeline:       b.pipe,
		GPU:            gpu.AlexNet,
		BatchSize:      batchSize,
		JobID:          jobID,
		Shuffle:        true,
		FetchBatchSize: fetchBatchSize,
	}
	if b.wl.Clairvoyant {
		cfg.Lookahead = 2
		cfg.VarianceAware = true
		cfg.Classify = b.classify
	}
	return cfg
}

// setUp builds the workload's dataset and store, launches its servers, runs
// the stage-2 profiling epoch and computes the plan.
func setUp(wl workload, sz sizing, seed uint64) (*bed, error) {
	b := &bed{wl: wl, sz: sz, pipe: pipeline.Standard(pipeline.StandardOptions{CropSize: sz.Crop, FlipP: -1})}
	start := time.Now()
	set, err := pickDataset(seed, wl.N, sz, wl.Progressive)
	if err != nil {
		return nil, err
	}
	if b.store, err = buildStore(set, wl.Progressive); err != nil {
		return nil, err
	}
	b.times.Build = time.Since(start)

	start = time.Now()
	if err := b.launch(); err != nil {
		return nil, err
	}
	b.times.Launch = time.Since(start)

	start = time.Now()
	if err := b.profile(); err != nil {
		b.close()
		return nil, err
	}
	b.times.Profile = time.Since(start)

	start = time.Now()
	if err := b.makePlan(); err != nil {
		b.close()
		return nil, err
	}
	b.times.Plan = time.Since(start)
	return b, nil
}

// unshapedBps stands in for "no shaping" on a bucket that is shaped later.
const unshapedBps = 1e12

func (b *bed) launch() error {
	if b.wl.Shards > 1 {
		tier, err := cluster.Launch(cluster.Config{
			Shards: b.wl.Shards, Store: b.store, Pipeline: b.pipe,
			CoresPerShard: b.wl.Cores, LinkMbps: b.wl.LinkMbps,
		})
		b.tier = tier
		return err
	}
	srv, err := storage.NewServer(storage.ServerConfig{Store: b.store, Pipeline: b.pipe, Cores: b.wl.Cores})
	if err != nil {
		return err
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var l net.Listener = inner
	if b.wl.LinkMbps > 0 {
		// Same burst as sophon.StartCluster; the rate drops to the workload's
		// once the profiling epoch, which runs unshaped, is over.
		if b.bucket, err = netsim.NewTokenBucket(unshapedBps, 256<<10, nil); err != nil {
			inner.Close()
			return err
		}
		l = netsim.ShapeListener(inner, b.bucket)
	}
	b.server, b.addr = srv, inner.Addr().String()
	go srv.Serve(l)
	return nil
}

// profile collects the stage-2 trace. Over an SJPG store it is the trainer's
// own profiling epoch. trainsim's profiling path reads dimensions with
// imaging.DecodeDims, which rejects SJPR containers, so over a progressive
// store the same per-sample measurement (Pipeline.Trace into a
// profiler.Collector) is driven from here instead.
func (b *bed) profile() error {
	n := b.store.N()
	collector, err := profiler.NewCollector(n)
	if err != nil {
		return err
	}
	if b.wl.Progressive {
		for i := 0; i < n; i++ {
			raw, err := b.store.Get(uint32(i))
			if err != nil {
				return err
			}
			art, st, err := b.pipe.Trace(raw, pipeline.Seed{Job: jobID, Epoch: 1, Sample: uint64(i)})
			if err != nil {
				return err
			}
			art.Release()
			w, h, _, _, _, err := imaging.ProgressiveInfo(raw)
			if err != nil {
				return err
			}
			if err := collector.Observe(uint32(i), st, w, h); err != nil {
				return err
			}
		}
	} else {
		cfg := b.trainerConfig()
		cfg.Lookahead, cfg.VarianceAware, cfg.Classify = 0, false, nil // no classifier exists yet
		tr, err := trainsim.New(cfg)
		if err != nil {
			return err
		}
		_, err = tr.RunEpoch(1, nil, collector)
		tr.Close()
		if err != nil {
			return fmt.Errorf("profiling epoch: %w", err)
		}
		if b.bucket != nil {
			if err := b.bucket.SetRate(netsim.Mbps(b.wl.LinkMbps)); err != nil {
				return err
			}
		}
	}
	if b.measured, err = collector.Trace("measured"); err != nil {
		return err
	}
	if b.wl.Clairvoyant {
		cl, err := prepsched.FromTrace(b.measured, 0)
		if err != nil {
			return err
		}
		b.classify = func(sample int) prepsched.Class { return cl.Classify(b.measured.Records[sample].TotalTime()) }
	}
	return nil
}

func (b *bed) makePlan() error {
	b.env = policy.Env{
		Bandwidth:       unshapedBps,
		ComputeCores:    computeCores,
		StorageCores:    b.wl.Cores,
		StorageSlowdown: 1,
		GPU:             gpu.AlexNet,
		Shards:          b.wl.Shards,
	}
	if b.wl.LinkMbps > 0 {
		b.env.Bandwidth = netsim.Mbps(b.wl.LinkMbps)
	}
	costs := costTrace(b.measured, b.sz.Crop, b.wl.Progressive)
	var err error
	switch b.wl.Policy {
	case "none":
	case "sophon":
		b.plan, err = policy.NewSophon().Plan(costs, b.env)
	case "alloff":
		b.plan, err = policy.AllOff{}.Plan(costs, b.env)
	case "sophon+fidelity":
		var ladder policy.FidelityModel
		if ladder, err = calibrateLadder(b.store); err != nil {
			return err
		}
		b.ladder = &ladder
		p := &policy.Sophon{Fidelity: &policy.FidelityPass{Model: ladder, QualityFloor: qualityFloor, MeanQualityFloor: meanQualFloor}}
		b.plan, err = p.Plan(costs, b.env)
	default:
		err = fmt.Errorf("unknown policy %q", b.wl.Policy)
	}
	return err
}

// calibrateLadder measures the byte/quality ladder from the live codec the
// way sophon-bench -fidelity does, but on the workload's own containers:
// ByteFrac[k] is the mean share of the container the first k+1 scans ship,
// Quality[k] is 1 − mean absolute pixel error / 255 of decoding that prefix.
func calibrateLadder(store *storage.Store) (policy.FidelityModel, error) {
	const probes = 16
	fm := policy.FidelityModel{
		Levels:   imaging.MaxScans,
		ByteFrac: make([]float64, imaging.MaxScans),
		Quality:  make([]float64, imaging.MaxScans),
	}
	for i := 0; i < probes; i++ {
		full, err := store.Get(uint32(i * store.N() / probes))
		if err != nil {
			return fm, err
		}
		ref, _, err := imaging.DecodeProgressive(full)
		if err != nil {
			return fm, err
		}
		for k := 1; k <= imaging.MaxScans; k++ {
			n, err := imaging.PrefixSize(full, k)
			if err != nil {
				return fm, err
			}
			fm.ByteFrac[k-1] += float64(n) / float64(len(full)) / probes
			dec, err := imaging.DecodeAtFidelity(full, k)
			if err != nil {
				return fm, err
			}
			var abs int64
			for p := range dec.Pix {
				d := int64(dec.Pix[p]) - int64(ref.Pix[p])
				if d < 0 {
					d = -d
				}
				abs += d
			}
			fm.Quality[k-1] += (1 - float64(abs)/float64(len(dec.Pix))/255) / probes
			dec.Release()
		}
		ref.Release()
	}
	// Full depth is exact by construction; pin the float averages.
	fm.ByteFrac[imaging.MaxScans-1], fm.Quality[imaging.MaxScans-1] = 1, 1
	return fm, fm.Validate()
}

// planDigest is FNV-64a over Splits then Fidelity; a nil plan digests empty.
func planDigest(p *policy.Plan) uint64 {
	h := fnv.New64a()
	if p != nil {
		h.Write(p.Splits)
		h.Write(p.Fidelity)
	}
	return h.Sum64()
}
