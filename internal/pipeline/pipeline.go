package pipeline

import (
	"errors"
	"fmt"
	"math/rand/v2"
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
	ops []Op
}

// ErrBadSplit reports an out-of-range split point.
var ErrBadSplit = errors.New("pipeline: split out of range")

// New validates that each op consumes what its predecessor produces and that
// the first op consumes raw bytes.
func New(ops ...Op) (*Pipeline, error) {
	if len(ops) == 0 {
		return nil, errors.New("pipeline: no ops")
	}
	if ops[0].InKind() != KindRaw {
		return nil, fmt.Errorf("pipeline: first op %s must consume raw, consumes %s", ops[0].Name(), ops[0].InKind())
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].InKind() != ops[i-1].OutKind() {
			return nil, fmt.Errorf("pipeline: %s produces %s but %s consumes %s",
				ops[i-1].Name(), ops[i-1].OutKind(), ops[i].Name(), ops[i].InKind())
		}
	}
	return &Pipeline{ops: append([]Op(nil), ops...)}, nil
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
	p, err := New(
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

// Len returns the number of ops.
func (p *Pipeline) Len() int { return len(p.ops) }

// Ops returns the op list (callers must not mutate it).
func (p *Pipeline) Ops() []Op { return p.ops }

// OpIDs returns the ordered op identifiers.
func (p *Pipeline) OpIDs() []OpID {
	ids := make([]OpID, len(p.ops))
	for i, op := range p.ops {
		ids[i] = op.ID()
	}
	return ids
}

// rngFor builds the op's independent random stream. It is the reference for
// rngHolder.seedFor, which produces the identical stream without allocating.
func rngFor(seed Seed, opIndex int) *rand.Rand {
	s := seed.ForOp(opIndex)
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
	s := seed.ForOp(opIndex)
	h.pcg.Seed(s, splitmix(s))
	return h.rng
}

// RunRange applies ops [from, to) to a, deriving each op's rng from seed.
// from==to returns a unchanged.
//
// Ownership follows the Op contract: the pipeline consumes a (image/tensor
// payloads may be mutated in place or released to the buffer pool; raw
// payloads are borrowed and left untouched). The returned artifact is owned
// by the caller — Release it when done to keep the path allocation-free.
//
// Two adjacent pairs inside [from, to) run as one kernel each, bit-identical
// to the sequential pair (Trace, which never fuses, is the reference):
// Decode+RandomResizedCrop on a raw artifact dequantizes only the pixels the
// crop samples (randomResizedCropOp.decodeCrop), and ToTensor+Normalize is a
// single pass (tensor.FromImageNormalized; both ops ignore their rng).
func (p *Pipeline) RunRange(a Artifact, from, to int, seed Seed) (Artifact, error) {
	if from < 0 || to > len(p.ops) || from > to {
		return Artifact{}, fmt.Errorf("%w: [%d, %d) of %d ops", ErrBadSplit, from, to, len(p.ops))
	}
	h := rngPool.Get().(*rngHolder)
	defer rngPool.Put(h)
	cur := a
	for i := from; i < to; i++ {
		if _, isDec := p.ops[i].(decodeOp); isDec && i+1 < to && cur.Kind == KindRaw {
			if crop, isCrop := p.ops[i+1].(randomResizedCropOp); isCrop {
				im, err := crop.decodeCrop(cur.Raw, h.seedFor(seed, i+1))
				if err != nil {
					return Artifact{}, fmt.Errorf("pipeline: op %d (%s): %w", i, p.ops[i].Name(), err)
				}
				cur = ImageArtifact(im)
				i++ // loop increment skips the fused crop as well
				continue
			}
		}
		if _, isTT := p.ops[i].(toTensorOp); isTT && i+1 < to && cur.Kind == KindImage {
			if nz, isNZ := p.ops[i+1].(normalizeOp); isNZ {
				t, err := tensor.FromImageNormalized(cur.Image, nz.Mean, nz.Std)
				if err != nil {
					return Artifact{}, fmt.Errorf("pipeline: op %d (%s): %w", i+1, p.ops[i+1].Name(), err)
				}
				cur.Image.Release()
				cur = TensorArtifact(t)
				i++ // loop increment skips the fused Normalize as well
				continue
			}
		}
		next, err := p.ops[i].Apply(cur, h.seedFor(seed, i))
		if err != nil {
			return Artifact{}, fmt.Errorf("pipeline: op %d (%s): %w", i, p.ops[i].Name(), err)
		}
		cur = next
	}
	return cur, nil
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
// model-tier tables are written in. Shipped is len(Encode()), the bytes a
// fetch cut at that stage puts on the link; it differs from Sizes on image
// stages, whose pixels travel packed, and is what a planner must price.
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
// per-op wall times. It is the measurement kernel of the profiler's second
// stage, so it deliberately runs every op sequentially — no
// ToTensor+Normalize fusion — to measure each op's true cost. Image stages
// are sized once each, outside the op timings, to learn what they ship.
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
		next, err := op.Apply(cur, rngFor(seed, i))
		trace.OpTimes[i] = time.Since(start)
		if err != nil {
			return Artifact{}, StageTrace{}, fmt.Errorf("pipeline: trace op %d (%s): %w", i, op.Name(), err)
		}
		cur = next
		trace.Sizes[i+1] = cur.WireSize()
		trace.Shipped[i+1] = shippedSize(cur)
	}
	return cur, trace, nil
}

// shippedSize returns len(a.Encode()) without encoding. Only the image
// encoding depends on content, and its size is known from the histograms of
// what it would code; the others are their WireSize.
func shippedSize(a Artifact) int {
	if a.Kind != KindImage {
		return a.WireSize()
	}
	return imageHeader + imaging.PackedSize(a.Image)
}
