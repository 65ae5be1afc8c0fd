package pipeline

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"repro/internal/imaging"
	"repro/internal/tensor"
)

// Pipeline is an ordered sequence of ops whose artifact kinds chain
// correctly. Indexing convention used across the repository: "stage k" is
// the artifact after the first k ops, so stage 0 is the raw sample and stage
// len(Ops) is the fully preprocessed tensor. An offload plan with split k
// runs ops [0, k) on the storage server and ops [k, len) locally.
type Pipeline struct {
	ops []op
}

// ErrBadSplit reports an out-of-range split point.
var ErrBadSplit = errors.New("pipeline: split out of range")

// newPipeline validates that each op consumes what its predecessor produces
// and that the first op consumes raw bytes.
func newPipeline(ops ...op) (*Pipeline, error) {
	if len(ops) == 0 {
		return nil, errors.New("pipeline: no ops")
	}
	if ops[0].inKind() != KindRaw {
		return nil, fmt.Errorf("pipeline: first op %s must consume raw, consumes %s", ops[0].name(), ops[0].inKind())
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].inKind() != ops[i-1].outKind() {
			return nil, fmt.Errorf("pipeline: %s produces %s but %s consumes %s",
				ops[i-1].name(), ops[i-1].outKind(), ops[i].name(), ops[i].inKind())
		}
	}
	return &Pipeline{ops: append([]op(nil), ops...)}, nil
}

// StandardOptions configures the standard image-classification pipeline.
type StandardOptions struct {
	CropSize int     // output side length; 0 means 224
	FlipP    float64 // horizontal-flip probability; negative means 0.5
}

// Standard builds the paper's five-op pipeline:
// Decode → RandomResizedCrop → RandomHorizontalFlip → ToTensor → Normalize.
func Standard(opts StandardOptions) *Pipeline {
	if opts.CropSize <= 0 {
		opts.CropSize = 224
	}
	if opts.FlipP < 0 {
		opts.FlipP = 0.5
	}
	p, err := newPipeline(
		decodeOp{},
		newRandomResizedCrop(opts.CropSize),
		randomHorizontalFlipOp{P: opts.FlipP},
		toTensorOp{},
		normalizeOp{Mean: tensor.ImageNetMean, Std: tensor.ImageNetStd},
	)
	if err != nil {
		// The standard pipeline is statically well-formed.
		panic(err)
	}
	return p
}

// DefaultStandard is Standard with all defaults (224 crop, p=0.5 flip,
// ImageNet normalization).
func DefaultStandard() *Pipeline { return Standard(StandardOptions{FlipP: -1}) }

// Fingerprint is what a pipeline does to a sample, as a server states it at
// the handshake: the op names in order, comma-separated, the crop side and
// the flip probability. Standard(Crop, FlipP) builds every pipeline there is.
type Fingerprint struct {
	Ops   string
	Crop  int
	FlipP float64
}

// Fingerprint returns p's fingerprint.
func (p *Pipeline) Fingerprint() (f Fingerprint) {
	names := make([]string, len(p.ops))
	for i, o := range p.ops {
		names[i] = o.name()
		switch o := o.(type) {
		case randomResizedCropOp:
			f.Crop = o.Size
		case randomHorizontalFlipOp:
			f.FlipP = o.P
		}
	}
	f.Ops = strings.Join(names, ",")
	return f
}

// MismatchError reports two sides of one training session that prepare
// samples differently: a trainer and its tier, or a shard and shard 0.
type MismatchError struct {
	Side, Other             string
	Pipeline, OtherPipeline Fingerprint
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("pipeline mismatch: %s runs %+v, %s runs %+v", e.Side, e.Pipeline, e.Other, e.OtherPipeline)
}

// Len returns the number of ops.
func (p *Pipeline) Len() int { return len(p.ops) }

// CutBound returns the EncodeBound of the artifact the first split ops make
// of a stored w×h image, 0 < split ≤ Len(): the buffer a server holds to
// ship that cut, known from the object's header before any op runs.
func (p *Pipeline) CutBound(w, h, split int) int {
	for _, o := range p.ops[:split] {
		if c, ok := o.(randomResizedCropOp); ok {
			w, h = c.Size, c.Size
		}
	}
	if p.ops[split-1].outKind() == KindTensor {
		return TensorWireSize(imaging.Channels, h, w)
	}
	return ImageWireSize(w, h) + imaging.Channels
}

// rngFor builds the op's independent random stream. It is the reference for
// rngHolder.seedFor, which produces the identical stream without allocating.
func rngFor(seed Seed, opIndex int) *rand.Rand {
	s := seed.forOp(opIndex)
	return rand.New(rand.NewPCG(s, splitmix(s)))
}

// rngHolder is a reusable PCG generator. rand.Rand carries no state beyond
// its source, so re-seeding the PCG yields exactly the stream a fresh
// rand.New(rand.NewPCG(...)) would.
type rngHolder struct {
	pcg *rand.PCG
	rng *rand.Rand
}

var rngPool = sync.Pool{New: func() any {
	pcg := rand.NewPCG(0, 0)
	return &rngHolder{pcg: pcg, rng: rand.New(pcg)}
}}

// seedFor re-seeds the holder to op opIndex's independent stream, matching
// rngFor bit for bit.
func (h *rngHolder) seedFor(seed Seed, opIndex int) *rand.Rand {
	s := seed.forOp(opIndex)
	h.pcg.Seed(s, splitmix(s))
	return h.rng
}

// RunRange applies ops [from, to) to a, deriving each op's rng from seed.
// from==to returns a unchanged.
//
// Ownership follows the op contract: the pipeline consumes a (image/tensor
// payloads may be mutated in place or released to the buffer pool; raw
// payloads are borrowed and left untouched). The returned artifact is owned
// by the caller — Release it when done to keep the path allocation-free.
//
// Two adjacent pairs inside [from, to) run as one kernel each (step),
// bit-identical to the sequential pair (Trace, which never fuses, is the
// reference).
func (p *Pipeline) RunRange(a Artifact, from, to int, seed Seed) (Artifact, error) {
	if from < 0 || to > len(p.ops) || from > to {
		return Artifact{}, fmt.Errorf("%w: [%d, %d) of %d ops", ErrBadSplit, from, to, len(p.ops))
	}
	h := rngPool.Get().(*rngHolder)
	defer rngPool.Put(h)
	cur := a
	for i := from; i < to; i++ {
		next, skipped, err := p.step(cur, i, to, h, seed)
		if err != nil {
			return Artifact{}, err
		}
		if skipped > 0 {
			i++ // loop increment skips the pair's second op as well
		}
		cur = next
	}
	return cur, nil
}

// step applies op i to cur, or ops i and i+1 as one kernel when both lie
// below to and form a fused pair: Decode+RandomResizedCrop on a raw artifact
// dequantizes only the pixels the crop samples (randomResizedCropOp.decodeCrop),
// and ToTensor+Normalize is a single pass (tensor.FromImageNormalized; both
// ops ignore their rng). skipped is 0 when op i ran alone; after a pair it is
// the law size of the stage the pair never built — the decoded image's
// ImageWireSize, the un-normalised tensor's TensorWireSize.
func (p *Pipeline) step(cur Artifact, i, to int, h *rngHolder, seed Seed) (next Artifact, skipped int, err error) {
	if i+1 < to {
		switch second := p.ops[i+1].(type) {
		case randomResizedCropOp:
			if _, isDec := p.ops[i].(decodeOp); isDec && cur.Kind == KindRaw {
				im, decoded, err := second.decodeCrop(cur, h.seedFor(seed, i+1))
				if err != nil {
					return Artifact{}, 0, fmt.Errorf("pipeline: op %d (%s): %w", i, p.ops[i].name(), err)
				}
				return imageArtifact(im), decoded, nil
			}
		case normalizeOp:
			if _, isTT := p.ops[i].(toTensorOp); isTT && cur.Kind == KindImage {
				t, err := tensor.FromImageNormalized(cur.Image, second.Mean, second.Std)
				if err != nil {
					return Artifact{}, 0, fmt.Errorf("pipeline: op %d (%s): %w", i+1, second.name(), err)
				}
				cur.Image.Release()
				return tensorArtifact(t), TensorWireSize(t.C, t.H, t.W), nil
			}
		}
	}
	next, err = p.ops[i].apply(cur, h.seedFor(seed, i))
	if err != nil {
		return Artifact{}, 0, fmt.Errorf("pipeline: op %d (%s): %w", i, p.ops[i].name(), err)
	}
	return next, 0, nil
}

// CropRect returns the rect the fused Decode+RandomResizedCrop (step) draws
// from raw's header and seed, for a server to ship only the part it reads
// (imaging.Slice); ok only when ops 0–1 are that pair and the header parses.
func (p *Pipeline) CropRect(raw []byte, seed Seed) (imaging.Rect, bool) {
	crop, isCrop := p.ops[min(1, len(p.ops)-1)].(randomResizedCropOp)
	_, isDec := p.ops[0].(decodeOp)
	w, h, err := imaging.DecodeDims(raw)
	if !isCrop || !isDec || err != nil {
		return imaging.Rect{}, false
	}
	hold := rngPool.Get().(*rngHolder)
	defer rngPool.Put(hold)
	return crop.sampleRect(w, h, hold.seedFor(seed, 1)), true
}

// Run applies the full pipeline to raw sample bytes.
func (p *Pipeline) Run(raw []byte, seed Seed) (Artifact, error) {
	return p.RunRange(RawArtifact(raw), 0, len(p.ops), seed)
}

// StageTrace records the artifact size after every stage and the CPU time
// each op took. Sizes and Shipped have Len()+1 entries (stage 0 = raw);
// OpTimes has Len() entries.
//
// Sizes is the artifact-size law, WireSize(): a function of kind and
// dimensions alone, which the paper's Figure 1a, the trace generator and the
// model-tier tables are written in. Shipped is len(AppendEncode(nil)), the
// bytes a fetch cut at that stage puts on the link; it differs from Sizes on
// image stages, whose pixels travel packed, and is what a planner must price.
// Stage 0 is the stored object in both: a live raw fetch that asks for the
// crop's rows (storage.Rows) ships only the units the crop reads, ≈ 0.49 of
// it on the benchmark's cpu_local store (ROADMAP item 15).
type StageTrace struct {
	Sizes   []int
	Shipped []int
	OpTimes []time.Duration
}

// MinStage returns the stage index with the smallest wire size, preferring
// the earliest stage on ties (an earlier minimum means less server CPU for
// the same traffic).
func (t StageTrace) MinStage() int {
	best := 0
	for i, s := range t.Sizes {
		if s < t.Sizes[best] {
			best = i
		}
	}
	return best
}

// Trace runs the full pipeline over raw bytes, recording per-stage sizes and
// per-op wall times. It is the reference: it deliberately runs every op
// sequentially — no fused pair — so every stage is built and each op's own
// cost measured. Image stages are sized once each, outside the op timings, to
// learn what they ship.
func (p *Pipeline) Trace(raw []byte, seed Seed) (Artifact, StageTrace, error) {
	trace := StageTrace{
		Sizes:   make([]int, len(p.ops)+1),
		Shipped: make([]int, len(p.ops)+1),
		OpTimes: make([]time.Duration, len(p.ops)),
	}
	cur := RawArtifact(raw)
	trace.Sizes[0] = cur.WireSize()
	trace.Shipped[0] = trace.Sizes[0]
	for i, op := range p.ops {
		start := time.Now()
		next, err := op.apply(cur, rngFor(seed, i))
		trace.OpTimes[i] = time.Since(start)
		if err != nil {
			return Artifact{}, StageTrace{}, fmt.Errorf("pipeline: trace op %d (%s): %w", i, op.name(), err)
		}
		cur = next
		trace.Sizes[i+1] = cur.WireSize()
		trace.Shipped[i+1] = shippedSize(cur)
	}
	return cur, trace, nil
}

// Profile is the measurement kernel of the profiler's second stage: it runs
// the full pipeline over raw bytes as Run does, through step, timing each
// step and recording the sizes after every stage it builds, as Trace sizes
// them and outside the timings. A stage inside a fused pair is never built:
// it gets its law size as both Sizes and Shipped — exact for the
// un-normalised tensor, an unpacked upper price for the decoded image — and
// the pair's time goes on its first op, its second reading 0. PrefixTime is
// thus exact at every cut outside a pair.
func (p *Pipeline) Profile(raw []byte, seed Seed) (Artifact, StageTrace, error) {
	trace := StageTrace{
		Sizes:   make([]int, len(p.ops)+1),
		Shipped: make([]int, len(p.ops)+1),
		OpTimes: make([]time.Duration, len(p.ops)),
	}
	h := rngPool.Get().(*rngHolder)
	defer rngPool.Put(h)
	cur := RawArtifact(raw)
	trace.Sizes[0] = cur.WireSize()
	trace.Shipped[0] = trace.Sizes[0]
	for i := 0; i < len(p.ops); {
		start := time.Now()
		next, skipped, err := p.step(cur, i, len(p.ops), h, seed)
		trace.OpTimes[i] = time.Since(start)
		if err != nil {
			return Artifact{}, StageTrace{}, err
		}
		i++
		if skipped > 0 { // stage i, inside the pair, was never built
			trace.Sizes[i], trace.Shipped[i] = skipped, skipped
			i++
		}
		cur = next
		trace.Sizes[i] = cur.WireSize()
		trace.Shipped[i] = shippedSize(cur)
	}
	return cur, trace, nil
}

// shippedSize returns len(a.AppendEncode(nil)) without encoding. Only the image
// encoding depends on content, and its size is known from the histograms of
// what it would code; the others are their WireSize.
func shippedSize(a Artifact) int {
	if a.Kind != KindImage {
		return a.WireSize()
	}
	return imageHeader + imaging.PackedSize(a.Image)
}
