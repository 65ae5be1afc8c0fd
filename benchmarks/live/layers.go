package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// replaySamples is the fixed subset the layer replay times, the same sample
// IDs the artifact check fetches.
const replaySamples = checkSamples

// replay holds the layer replay's per-call timings, one slice per metric, in
// microseconds unless the name says otherwise.
type replay struct {
	decode, decodeFid, encode      []float64
	slicePrefixNs                  []float64
	decodedBytes, decodeS          float64
	fromImage, appendMarshal       []float64
	op                             [5][]float64
	run, suffix, artEncode, artDec []float64
	execPrefix                     []float64
	wireWrite, wireRead            []float64
	frameOverhead                  float64
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeIt runs f and returns how long it took.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// modalDrop is the plan's most common non-zero fidelity drop, 0 without one.
func modalDrop(p *policy.Plan) int {
	var counts [imaging.MaxScans]int
	best := 0
	if p != nil {
		for _, f := range p.Fidelity {
			if f > 0 && int(f) < len(counts) {
				counts[f]++
				if counts[f] > counts[best] || best == 0 {
					best = int(f)
				}
			}
		}
	}
	return best
}

// layerReplay times each layer's public functions on one goroutine over the
// workload's own stored objects and the artifacts its plan ships.
func (b *bed) layerReplay() (*replay, error) {
	r := &replay{}
	exec, err := storage.NewExecutor(b.pipe, 1, 1, nil)
	if err != nil {
		return nil, err
	}
	modalKeep := imaging.MaxScans - modalDrop(b.plan) // scans served at the plan's most common fidelity
	n := b.store.N()
	var frame wire.FetchBatchResp
	var frameArtifacts int
	var scratch []byte
	flush := func() error {
		var buf bytes.Buffer
		d, err := timeIt(func() error { return wire.Write(&buf, &frame) })
		if err != nil {
			return err
		}
		r.wireWrite = append(r.wireWrite, us(d))
		r.frameOverhead = float64(wire.FrameSize(&frame) - frameArtifacts)
		var msg wire.Message
		if d, err = timeIt(func() (err error) { msg, err = wire.Read(&buf); return }); err != nil {
			return err
		}
		r.wireRead = append(r.wireRead, us(d))
		wire.Recycle(msg)
		frame.Items, frameArtifacts = frame.Items[:0], 0
		return nil
	}
	for k := 0; k < replaySamples; k++ {
		id := k * n / replaySamples
		raw, err := b.store.Get(uint32(id))
		if err != nil {
			return nil, err
		}
		seed := pipeline.Seed{Job: jobID, Epoch: 2, Sample: uint64(id)}

		// imaging: decode, reduced-fidelity decode and prefix slice, encode.
		var im *imaging.Image
		d, err := timeIt(func() (err error) {
			if b.wl.Progressive {
				im, _, err = imaging.DecodeProgressive(raw)
			} else {
				im, err = imaging.Decode(raw)
			}
			return
		})
		if err != nil {
			return nil, err
		}
		r.decode = append(r.decode, us(d))
		r.decodeS += d.Seconds()
		r.decodedBytes += float64(len(im.Pix))
		if b.wl.Progressive {
			var low *imaging.Image
			if d, err = timeIt(func() (err error) { low, err = imaging.DecodeAtFidelity(raw, modalKeep); return }); err != nil {
				return nil, err
			}
			low.Release()
			r.decodeFid = append(r.decodeFid, us(d))
			if d, err = timeIt(func() (err error) { _, err = imaging.SlicePrefix(raw, modalKeep); return }); err != nil {
				return nil, err
			}
			r.slicePrefixNs = append(r.slicePrefixNs, float64(d.Nanoseconds()))
		} else {
			r.decodeFid = append(r.decodeFid, us(d))
		}
		if d, err = timeIt(func() (err error) { _, err = imaging.Encode(im, imaging.DefaultQuality); return }); err != nil {
			return nil, err
		}
		r.encode = append(r.encode, us(d))
		im.Release()

		// pipeline: per-op times, the whole run, and the cropped image the
		// tensor kernels start from.
		full, st, err := b.pipe.Trace(raw, seed)
		if err != nil {
			return nil, err
		}
		full.Release()
		for i := range r.op {
			r.op[i] = append(r.op[i], us(st.OpTimes[i]))
		}
		if d, err = timeIt(func() (err error) { full, err = b.pipe.Run(raw, seed); return }); err != nil {
			return nil, err
		}
		full.Release()
		r.run = append(r.run, us(d))
		cropped, err := b.pipe.RunRange(pipeline.RawArtifact(raw), 0, 3, seed)
		if err != nil {
			return nil, err
		}
		var t *tensor.Tensor
		if d, err = timeIt(func() (err error) {
			t, err = tensor.FromImageNormalized(cropped.Image, tensor.ImageNetMean, tensor.ImageNetStd)
			return
		}); err != nil {
			return nil, err
		}
		cropped.Release()
		r.fromImage = append(r.fromImage, us(d))
		scratch = scratch[:0]
		d, _ = timeIt(func() error { scratch = t.AppendMarshal(scratch); return nil })
		t.Release()
		r.appendMarshal = append(r.appendMarshal, us(d))

		// The artifact the plan ships for this sample: server prefix, its
		// encoding, the client's decode and local suffix.
		_, cut, sampleDrop := directive(b.plan, id)
		input, err := localInput(raw, sampleDrop)
		if err != nil {
			return nil, err
		}
		var encoded []byte
		if d, err = timeIt(func() (err error) { encoded, err = exec.RunPrefixEncoded(input, cut, seed); return }); err != nil {
			return nil, err
		}
		r.execPrefix = append(r.execPrefix, us(d))
		var art pipeline.Artifact
		if d, err = timeIt(func() (err error) { art, err = pipeline.DecodeArtifact(encoded); return }); err != nil {
			return nil, err
		}
		r.artDec = append(r.artDec, us(d))
		if d, err = timeIt(func() (err error) { scratch, err = art.AppendEncode(scratch[:0]); return }); err != nil {
			return nil, err
		}
		r.artEncode = append(r.artEncode, us(d))
		if d, err = timeIt(func() (err error) { art, err = b.pipe.RunRange(art, cut, b.pipe.Len(), seed); return }); err != nil {
			return nil, err
		}
		art.Release()
		r.suffix = append(r.suffix, us(d))

		// wire: the response frames the trainer receives, fetchBatchSize
		// artifacts each.
		frame.Items = append(frame.Items, wire.FetchBatchRespItem{Sample: uint32(id), Split: uint8(cut), Status: wire.FetchOK, Artifact: encoded})
		frameArtifacts += len(encoded)
		if len(frame.Items) == fetchBatchSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// refKernelNs times a fixed CRC32-C + memcpy loop over 1 MiB, so records
// from different machines can be normalised.
func refKernelNs() float64 {
	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i * 31)
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	var times []float64
	var sink uint32
	for rep := 0; rep < 33; rep++ {
		start := time.Now()
		copy(dst, src)
		sink += crc32.Checksum(dst, table)
		times = append(times, float64(time.Since(start).Nanoseconds()))
	}
	if sink == 1 {
		return math.NaN() // keeps the checksum live; its value is irrelevant
	}
	return quantile(times, 0.5)
}

// simulate runs the discrete-event engine on the same measured trace, plan
// and environment the live phase ran.
func (b *bed) simulate(seed uint64) (epochS, runMs float64, err error) {
	plan := b.plan
	if plan == nil {
		if plan, err = policy.NewUniformPlan("No-Off", b.measured.N(), 0); err != nil {
			return 0, 0, err
		}
	}
	cfg := engine.Config{
		Trace: b.measured, Plan: plan, Env: b.env, BatchSize: batchSize,
		ShuffleSeed: seed, Shards: b.wl.Shards, Fidelity: b.ladder,
	}
	if b.wl.Clairvoyant {
		// Two round trips of fetchBatchSize samples in flight per shard, and
		// the two-worker stealing pool.
		cfg.Lookahead, cfg.PrepSched, cfg.PrepWorkers = 2*fetchBatchSize, engine.PrepSchedSteal, workers
	} else {
		cfg.PrefetchWindow = 2 * workers * fetchBatchSize // 2×Workers fetchers, one batch each
	}
	start := time.Now()
	res, err := engine.Run(cfg)
	return res.EpochTime.Seconds(), time.Since(start).Seconds() * 1e3, err
}

// perLayer assembles the per-layer table: live numbers from the traced
// phase p (spans in rec, counters, reports) beside the untraced phase plain
// it alternated with, replay numbers from layerReplay, and the simulator's
// prediction beside the live epoch.
func perLayer(cfg config, b *bed, plain, p *phase, rec *recorder, m model, r *replay, desS, desMs float64, leaked int) (table, error) {
	var err error
	var t table
	n := float64(b.store.N())
	wall := p.Wall.Seconds()
	samples := float64(p.samples())
	epochs := float64(len(p.Epochs))
	p50 := func(xs []float64) float64 { return quantile(xs, 0.5) }

	t.add("imaging.decode_us_p50", "us", p50(r.decode))
	t.add("imaging.decode_us_p95", "us", quantile(r.decode, 0.95))
	t.add("imaging.decode_mb_per_s", "MB/s", r.decodedBytes/1e6/r.decodeS)
	t.add("imaging.decode_fidelity_us_p50", "us", p50(r.decodeFid))
	t.add("imaging.slice_prefix_ns_p50", "ns", p50(r.slicePrefixNs))
	t.add("imaging.encode_us_p50", "us", p50(r.encode))
	t.add("tensor.from_image_normalized_us_p50", "us", p50(r.fromImage))
	t.add("tensor.append_marshal_us_p50", "us", p50(r.appendMarshal))
	for i, name := range []string{"decode", "rrcrop", "flip", "totensor", "normalize"} {
		t.add("pipeline.op_"+name+"_us_p50", "us", p50(r.op[i]))
	}
	t.add("pipeline.run_us_p50", "us", p50(r.run))
	t.add("pipeline.run_us_p95", "us", quantile(r.run, 0.95))
	t.add("pipeline.suffix_us_p50", "us", p50(r.suffix))
	t.add("pipeline.artifact_encode_us_p50", "us", p50(r.artEncode))
	t.add("pipeline.artifact_decode_us_p50", "us", p50(r.artDec))
	t.add("wire.write_us_p50", "us", p50(r.wireWrite))
	t.add("wire.read_us_p50", "us", p50(r.wireRead))
	t.add("wire.frame_overhead_bytes", "B", r.frameOverhead)

	fetches := rec.named(spanFetch)
	var fetchMs []float64
	var fetchS float64
	byShard := map[int][]float64{}
	for _, s := range fetches {
		ms := s.dur().Seconds() * 1e3
		fetchMs = append(fetchMs, ms)
		fetchS += s.dur().Seconds()
		byShard[s.Shard] = append(byShard[s.Shard], ms)
	}
	var sum serverSnap
	for _, s := range p.Servers {
		sum.ops += s.ops
		sum.served += s.served
		sum.prefixServed += s.prefixServed
		sum.prefixSaved += s.prefixSaved
		sum.shed += s.shed
	}
	t.add("storage.fetch_calls", "count", float64(len(fetches)))
	t.add("storage.fetch_ms_p50", "ms", p50(fetchMs))
	t.add("storage.fetch_ms_p99", "ms", quantile(fetchMs, 0.99))
	t.add("storage.fetch_inflight_mean", "count", fetchS/wall)
	t.add("storage.exec_cpu_s", "s", m.ExecCPUS)
	t.add("storage.exec_util", "ratio", m.ExecUtil)
	t.add("storage.ops_executed", "count", float64(sum.ops))
	t.add("storage.samples_served", "count", float64(sum.served))
	t.add("storage.bytes_sent", "B", float64(p.sent()))
	t.add("storage.prefix_served", "count", float64(sum.prefixServed))
	t.add("storage.prefix_bytes_saved", "B", float64(sum.prefixSaved))
	t.add("storage.shed_load", "count", float64(sum.shed))
	t.add("storage.retries", "count", float64(p.Retries))
	t.add("storage.executor_prefix_us_p50", "us", p50(r.execPrefix))

	t.add("netsim.link_busy_s", "s", m.LinkBusyS)
	t.add("netsim.link_util", "ratio", m.LinkUtil)
	t.add("netsim.link_util_min_shard", "ratio", m.LinkUtilMin)
	var shardP50Max float64
	for _, ms := range byShard {
		shardP50Max = max(shardP50Max, p50(ms))
	}
	t.add("cluster.shard_bytes_max_over_mean", "ratio", m.ShardBytesMaxOverMean)
	t.add("cluster.shard_fetch_ms_p50_max", "ms", shardP50Max)

	t.add("prefetch.issued", "count", float64(p.Prefetch.Issued))
	t.add("prefetch.staged_peak_bytes", "B", float64(p.Prefetch.StagedPeakBytes))
	t.add("prefetch.budget_stalls", "count", float64(p.Prefetch.BudgetStalls))
	t.add("prefetch.horizon_stalls", "count", float64(p.Prefetch.HorizonStalls))
	heavyFrac := 0.0
	if d := p.Prep.Light + p.Prep.Heavy; d > 0 {
		heavyFrac = float64(p.Prep.Heavy) / float64(d)
	}
	t.add("prepsched.heavy_frac", "ratio", heavyFrac)
	t.add("prepsched.own_pops", "count", float64(p.Prep.OwnPops))
	t.add("prepsched.steals", "count", float64(p.Prep.Steals))
	t.add("prepsched.stalls", "count", float64(p.Prep.Stalls))

	steps := rec.named(spanStep)
	var waitMs []float64
	var waitS float64
	for _, s := range rec.named(spanStepWait) {
		waitMs = append(waitMs, s.dur().Seconds()*1e3)
		waitS += s.dur().Seconds()
	}
	t.add("trainsim.epochs", "count", epochs)
	t.add("trainsim.epoch_s_p50", "s", p50(p.epochSeconds()))
	t.add("trainsim.epoch_s_max", "s", quantile(p.epochSeconds(), 1))
	t.add("trainsim.steps", "count", float64(len(steps)))
	t.add("trainsim.step_wait_s", "s", waitS)
	t.add("trainsim.step_wait_ms_p50", "ms", p50(waitMs))
	t.add("trainsim.step_wait_ms_p95", "ms", quantile(waitMs, 0.95))
	t.add("trainsim.local_cpu_s", "s", m.LocalCPUS)
	t.add("trainsim.compute_util", "ratio", m.ComputeUtil)
	t.add("trainsim.offloaded_frac", "ratio", m.OffloadedFrac)
	t.add("gpu.busy_s", "s", m.GPUBusyS)
	t.add("gpu.util", "ratio", m.GPUBusyS/wall)

	var offFrac, redFrac float64
	predicted := b.measured.TotalRawBytes()
	if b.plan != nil {
		offFrac, redFrac = float64(b.plan.OffloadedCount())/n, float64(b.plan.ReducedCount())/n
		if b.ladder != nil {
			predicted, err = b.plan.TrafficWith(b.measured, *b.ladder)
		} else {
			predicted, err = b.plan.Traffic(b.measured)
		}
		if err != nil {
			return nil, err
		}
	}
	perEpochSent := float64(p.sent()) / epochs
	t.add("policy.plan_ms", "ms", b.times.Plan.Seconds()*1e3)
	t.add("policy.offloaded_frac", "ratio", offFrac)
	t.add("policy.reduced_frac", "ratio", redFrac)
	t.add("policy.pred_bytes_err_frac", "ratio", math.Abs(float64(predicted)-perEpochSent)/perEpochSent)
	t.add("policy.t_g_s", "s", m.TG)
	t.add("policy.t_net_s", "s", m.TNet)
	t.add("policy.t_cs_s", "s", m.TCS)
	t.add("policy.t_cc_s", "s", m.TCC)
	t.add("policy.binding_share", "ratio", m.BindingShare)
	t.add("profiler.stage2_epoch_s", "s", b.times.Profile.Seconds())
	t.add("dataset.build_s", "s", b.times.Build.Seconds())
	t.add("dataset.raw_bytes_mean", "B", float64(b.store.TotalBytes())/n)
	t.add("engine.des_epoch_s", "s", desS)
	t.add("engine.des_err_frac", "ratio", math.Abs(desS-m.EpochS)/m.EpochS)
	t.add("engine.run_ms", "ms", desMs)

	missFrac := func(gets, misses uint64) float64 {
		if gets == 0 {
			return 0
		}
		return float64(misses) / float64(gets)
	}
	t.add("bufpool.byte_miss_frac", "ratio", missFrac(p.BytePool.Gets, p.BytePool.Misses))
	t.add("bufpool.float32_miss_frac", "ratio", missFrac(p.F32Pool.Gets, p.F32Pool.Misses))
	t.add("runtime.alloc_kb_per_sample", "KB", float64(p.AllocBytes)/1024/samples)
	t.add("runtime.allocs_per_sample", "count", float64(p.Mallocs)/samples)
	t.add("runtime.gc_cycles", "count", float64(p.GCCycles))
	t.add("runtime.gc_pause_ms", "ms", float64(p.GCPauseNs)/1e6)
	t.add("runtime.heap_peak_mb", "MB", float64(p.HeapPeak)/(1<<20))
	t.add("runtime.cpu_ms_per_sample", "ms", p.CPU.Seconds()*1e3/samples)
	t.add("runtime.peak_rss_mb", "MB", peakRSSMB())
	t.add("runtime.goroutines_leaked", "count", float64(leaked))
	// The two trainers took turns, so epoch i of one ran right beside epoch
	// i of the other; the median of the paired ratios cancels host drift.
	var overhead []float64
	for i := 0; i < min(len(p.Epochs), len(plain.Epochs)); i++ {
		overhead = append(overhead, 1-plain.Epochs[i].Duration.Seconds()/p.Epochs[i].Duration.Seconds())
	}
	t.add("bench.trace_overhead_frac", "ratio", p50(overhead))
	t.add("bench.ref_kernel_ns", "ns", refKernelNs())
	t.add("bench.nproc", "count", float64(runtime.NumCPU()))
	fmt.Fprintf(cfg.Log, "  layer replay: %d samples on one goroutine (percentiles over %d calls, wire over %d frames); traced phase: %d epochs, %d fetch spans, %d step spans\n",
		replaySamples, len(r.decode), len(r.wireWrite), len(p.Epochs), len(fetches), len(steps))
	return t, nil
}
