package pipeline

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/imaging"
	"repro/internal/tensor"
)

// opID is the stable identifier for a preprocessing operation, used in wire
// messages and offload plans.
type opID uint8

// Standard op identifiers, in pipeline order.
const (
	opDecode opID = iota + 1
	opRandomResizedCrop
	opRandomHorizontalFlip
	opToTensor
	opNormalize
)

// String names the op.
func (id opID) String() string {
	switch id {
	case opDecode:
		return "Decode"
	case opRandomResizedCrop:
		return "RandomResizedCrop"
	case opRandomHorizontalFlip:
		return "RandomHorizontalFlip"
	case opToTensor:
		return "ToTensor"
	case opNormalize:
		return "Normalize"
	default:
		return fmt.Sprintf("Op(%d)", uint8(id))
	}
}

// op is one preprocessing operation. apply must be deterministic given the
// artifact and the rng stream.
//
// Ownership: apply CONSUMES its input artifact. Image and tensor payloads
// are owned by the pipeline — an op may mutate them in place or Release
// them to the buffer pool; callers must not touch an artifact after passing
// it to apply. Raw payloads are the one exception: they are borrowed
// (they may alias the store or a cache) and must never be mutated or
// released. See DESIGN.md "Buffer ownership".
type op interface {
	name() string
	// inKind and outKind declare the artifact types the op consumes and
	// produces; Pipeline validates adjacency at construction.
	inKind() Kind
	outKind() Kind
	apply(a Artifact, rng *rand.Rand) (Artifact, error)
}

// decodeOp turns a stored SJPG container into a pixel image. A container
// decodes from however many scans are present, so a prefix a
// reduced-fidelity fetch shipped flows through the same pipeline as a full
// object — at lower fidelity, not as an error. A raw artifact that carries
// Planes is dequantized from them, with nothing decoded.
type decodeOp struct{}

func (decodeOp) name() string  { return opDecode.String() }
func (decodeOp) inKind() Kind  { return KindRaw }
func (decodeOp) outKind() Kind { return KindImage }

func (decodeOp) apply(a Artifact, _ *rand.Rand) (Artifact, error) {
	if a.Kind != KindRaw {
		return Artifact{}, fmt.Errorf("%w: Decode wants raw, got %s", errKindMismatch, a.Kind)
	}
	var im *imaging.Image
	var err error
	if a.Planes != nil {
		im, err = a.Planes.Image()
	} else {
		im, err = imaging.Decode(a.Raw)
	}
	if err != nil {
		return Artifact{}, fmt.Errorf("pipeline: decode: %w", err)
	}
	return imageArtifact(im), nil
}

// randomResizedCropOp reproduces torchvision's RandomResizedCrop: sample a
// crop with area in scale×srcArea and aspect ratio in [3/4, 4/3] (10
// attempts, then a clamped center-crop fallback), and resize to Size².
type randomResizedCropOp struct {
	Size     int
	ScaleLo  float64
	ScaleHi  float64
	RatioLo  float64
	RatioHi  float64
	Attempts int
}

func newRandomResizedCrop(size int) randomResizedCropOp {
	return randomResizedCropOp{
		Size:    size,
		ScaleLo: 0.08, ScaleHi: 1.0,
		RatioLo: 3.0 / 4.0, RatioHi: 4.0 / 3.0,
		Attempts: 10,
	}
}

func (randomResizedCropOp) name() string  { return opRandomResizedCrop.String() }
func (randomResizedCropOp) inKind() Kind  { return KindImage }
func (randomResizedCropOp) outKind() Kind { return KindImage }

func (op randomResizedCropOp) apply(a Artifact, rng *rand.Rand) (Artifact, error) {
	if a.Kind != KindImage {
		return Artifact{}, fmt.Errorf("%w: RandomResizedCrop wants image, got %s", errKindMismatch, a.Kind)
	}
	im := a.Image
	rect := op.sampleRect(im.W, im.H, rng)
	out, err := imaging.CropResize(im, rect, op.Size, op.Size)
	if err != nil {
		return Artifact{}, fmt.Errorf("pipeline: random resized crop: %w", err)
	}
	im.Release()
	return imageArtifact(out), nil
}

// decodeCrop is decodeOp then op on the same raw sample, as one imaging kernel
// that never builds the full image — from a's Planes where it carries them,
// else decoding only the units the crop reads; decoded is the ImageWireSize
// that image would have had. The rect is sampled from the header's dimensions
// — the ones the decoded image would have — with op's own rng stream, so it is
// the rect apply would have drawn. A failure is the stream's: sampleRect only
// returns rects inside w×h.
func (op randomResizedCropOp) decodeCrop(a Artifact, rng *rand.Rand) (im *imaging.Image, decoded int, err error) {
	w, h, err := imaging.DecodeDims(a.Raw)
	if err != nil {
		return nil, 0, fmt.Errorf("pipeline: decode: %w", err)
	}
	rect := op.sampleRect(w, h, rng)
	if a.Planes != nil {
		im, err = a.Planes.CropResize(rect, op.Size, op.Size)
	} else {
		im, err = imaging.DecodeCropResize(a.Raw, rect, op.Size, op.Size)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("pipeline: decode: %w", err)
	}
	return im, ImageWireSize(w, h), nil
}

func (op randomResizedCropOp) sampleRect(w, h int, rng *rand.Rand) imaging.Rect {
	area := float64(w * h)
	logLo, logHi := math.Log(op.RatioLo), math.Log(op.RatioHi)
	for i := 0; i < op.Attempts; i++ {
		target := area * (op.ScaleLo + rng.Float64()*(op.ScaleHi-op.ScaleLo))
		ratio := math.Exp(logLo + rng.Float64()*(logHi-logLo))
		cw := int(math.Round(math.Sqrt(target * ratio)))
		ch := int(math.Round(math.Sqrt(target / ratio)))
		if cw > 0 && ch > 0 && cw <= w && ch <= h {
			x := rng.IntN(w - cw + 1)
			y := rng.IntN(h - ch + 1)
			return imaging.Rect{X: x, Y: y, W: cw, H: ch}
		}
	}
	// Fallback: largest centered crop within the ratio bounds.
	inRatio := float64(w) / float64(h)
	var cw, ch int
	switch {
	case inRatio < op.RatioLo:
		cw = w
		ch = int(math.Round(float64(cw) / op.RatioLo))
	case inRatio > op.RatioHi:
		ch = h
		cw = int(math.Round(float64(ch) * op.RatioHi))
	default:
		cw, ch = w, h
	}
	if cw < 1 {
		cw = 1
	}
	if ch < 1 {
		ch = 1
	}
	return imaging.Rect{X: (w - cw) / 2, Y: (h - ch) / 2, W: cw, H: ch}
}

// randomHorizontalFlipOp mirrors the image with probability P.
type randomHorizontalFlipOp struct {
	P float64
}

func (randomHorizontalFlipOp) name() string  { return opRandomHorizontalFlip.String() }
func (randomHorizontalFlipOp) inKind() Kind  { return KindImage }
func (randomHorizontalFlipOp) outKind() Kind { return KindImage }

func (op randomHorizontalFlipOp) apply(a Artifact, rng *rand.Rand) (Artifact, error) {
	if a.Kind != KindImage {
		return Artifact{}, fmt.Errorf("%w: RandomHorizontalFlip wants image, got %s", errKindMismatch, a.Kind)
	}
	// The op owns its input, so the flip happens in the image's own buffer:
	// no copy on either branch.
	if rng.Float64() < op.P {
		imaging.FlipHorizontalInPlace(a.Image)
	}
	return imageArtifact(a.Image), nil
}

// toTensorOp converts uint8 RGB to a float32 CHW tensor in [0, 1] — the 4×
// wire-size inflation the paper's Finding #2 hinges on.
type toTensorOp struct{}

func (toTensorOp) name() string  { return opToTensor.String() }
func (toTensorOp) inKind() Kind  { return KindImage }
func (toTensorOp) outKind() Kind { return KindTensor }

func (toTensorOp) apply(a Artifact, _ *rand.Rand) (Artifact, error) {
	if a.Kind != KindImage {
		return Artifact{}, fmt.Errorf("%w: ToTensor wants image, got %s", errKindMismatch, a.Kind)
	}
	t := tensor.FromImage(a.Image)
	a.Image.Release()
	return tensorArtifact(t), nil
}

// normalizeOp standardizes the tensor with per-channel mean/std.
type normalizeOp struct {
	Mean []float32
	Std  []float32
}

func (normalizeOp) name() string  { return opNormalize.String() }
func (normalizeOp) inKind() Kind  { return KindTensor }
func (normalizeOp) outKind() Kind { return KindTensor }

func (op normalizeOp) apply(a Artifact, _ *rand.Rand) (Artifact, error) {
	if a.Kind != KindTensor {
		return Artifact{}, fmt.Errorf("%w: Normalize wants tensor, got %s", errKindMismatch, a.Kind)
	}
	// In place: the op owns its input tensor.
	if err := a.Tensor.Normalize(op.Mean, op.Std); err != nil {
		return Artifact{}, fmt.Errorf("pipeline: normalize: %w", err)
	}
	return a, nil
}
