package pipeline

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/imaging"
	"repro/internal/tensor"
)

// OpID is the stable identifier for a preprocessing operation, used in wire
// messages and offload plans.
type OpID uint8

// Standard op identifiers, in pipeline order.
const (
	OpDecode OpID = iota + 1
	OpRandomResizedCrop
	OpRandomHorizontalFlip
	OpToTensor
	OpNormalize
)

// String names the op.
func (id OpID) String() string {
	switch id {
	case OpDecode:
		return "Decode"
	case OpRandomResizedCrop:
		return "RandomResizedCrop"
	case OpRandomHorizontalFlip:
		return "RandomHorizontalFlip"
	case OpToTensor:
		return "ToTensor"
	case OpNormalize:
		return "Normalize"
	default:
		if name, ok := extraOpName(id); ok {
			return name
		}
		return fmt.Sprintf("Op(%d)", uint8(id))
	}
}

// Op is one preprocessing operation. Apply must be deterministic given the
// artifact and the rng stream.
//
// Ownership: Apply CONSUMES its input artifact. Image and tensor payloads
// are owned by the pipeline — an op may mutate them in place or Release
// them to the buffer pool; callers must not touch an artifact after passing
// it to Apply. Raw payloads are the one exception: they are borrowed
// (they may alias the store or a cache) and must never be mutated or
// released. See DESIGN.md "Buffer ownership".
type Op interface {
	ID() OpID
	Name() string
	// InKind and OutKind declare the artifact types the op consumes and
	// produces; Pipeline validates adjacency at construction.
	InKind() Kind
	OutKind() Kind
	Apply(a Artifact, rng *rand.Rand) (Artifact, error)
}

// decodeOp turns a stored SJPG container into a pixel image. A container
// decodes from however many scans are present, so a prefix a
// reduced-fidelity fetch shipped flows through the same pipeline as a full
// object — at lower fidelity, not as an error.
type decodeOp struct{}

func (decodeOp) ID() OpID      { return OpDecode }
func (decodeOp) Name() string  { return OpDecode.String() }
func (decodeOp) InKind() Kind  { return KindRaw }
func (decodeOp) OutKind() Kind { return KindImage }

func (decodeOp) Apply(a Artifact, _ *rand.Rand) (Artifact, error) {
	if a.Kind != KindRaw {
		return Artifact{}, fmt.Errorf("%w: Decode wants raw, got %s", ErrKindMismatch, a.Kind)
	}
	im, err := imaging.Decode(a.Raw)
	if err != nil {
		return Artifact{}, fmt.Errorf("pipeline: decode: %w", err)
	}
	return ImageArtifact(im), nil
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

func (randomResizedCropOp) ID() OpID      { return OpRandomResizedCrop }
func (randomResizedCropOp) Name() string  { return OpRandomResizedCrop.String() }
func (randomResizedCropOp) InKind() Kind  { return KindImage }
func (randomResizedCropOp) OutKind() Kind { return KindImage }

func (op randomResizedCropOp) Apply(a Artifact, rng *rand.Rand) (Artifact, error) {
	if a.Kind != KindImage {
		return Artifact{}, fmt.Errorf("%w: RandomResizedCrop wants image, got %s", ErrKindMismatch, a.Kind)
	}
	im := a.Image
	rect := op.sampleRect(im.W, im.H, rng)
	out, err := imaging.CropResize(im, rect, op.Size, op.Size)
	if err != nil {
		return Artifact{}, fmt.Errorf("pipeline: random resized crop: %w", err)
	}
	im.Release()
	return ImageArtifact(out), nil
}

// decodeCrop is decodeOp then op on the same raw sample, as one imaging kernel
// that never builds the full image. The rect is sampled from the header's
// dimensions — the ones the decoded image would have — with op's own rng
// stream, so it is the rect Apply would have drawn. A failure is the stream's:
// sampleRect only returns rects inside w×h.
func (op randomResizedCropOp) decodeCrop(raw []byte, rng *rand.Rand) (*imaging.Image, error) {
	w, h, err := imaging.DecodeDims(raw)
	if err != nil {
		return nil, fmt.Errorf("pipeline: decode: %w", err)
	}
	im, err := imaging.DecodeCropResize(raw, op.sampleRect(w, h, rng), op.Size, op.Size)
	if err != nil {
		return nil, fmt.Errorf("pipeline: decode: %w", err)
	}
	return im, nil
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

func (randomHorizontalFlipOp) ID() OpID      { return OpRandomHorizontalFlip }
func (randomHorizontalFlipOp) Name() string  { return OpRandomHorizontalFlip.String() }
func (randomHorizontalFlipOp) InKind() Kind  { return KindImage }
func (randomHorizontalFlipOp) OutKind() Kind { return KindImage }

func (op randomHorizontalFlipOp) Apply(a Artifact, rng *rand.Rand) (Artifact, error) {
	if a.Kind != KindImage {
		return Artifact{}, fmt.Errorf("%w: RandomHorizontalFlip wants image, got %s", ErrKindMismatch, a.Kind)
	}
	// The op owns its input, so the flip happens in the image's own buffer:
	// no copy on either branch.
	if rng.Float64() < op.P {
		imaging.FlipHorizontalInPlace(a.Image)
	}
	return ImageArtifact(a.Image), nil
}

// toTensorOp converts uint8 RGB to a float32 CHW tensor in [0, 1] — the 4×
// wire-size inflation the paper's Finding #2 hinges on.
type toTensorOp struct{}

func (toTensorOp) ID() OpID      { return OpToTensor }
func (toTensorOp) Name() string  { return OpToTensor.String() }
func (toTensorOp) InKind() Kind  { return KindImage }
func (toTensorOp) OutKind() Kind { return KindTensor }

func (toTensorOp) Apply(a Artifact, _ *rand.Rand) (Artifact, error) {
	if a.Kind != KindImage {
		return Artifact{}, fmt.Errorf("%w: ToTensor wants image, got %s", ErrKindMismatch, a.Kind)
	}
	t := tensor.FromImage(a.Image)
	a.Image.Release()
	return TensorArtifact(t), nil
}

// normalizeOp standardizes the tensor with per-channel mean/std.
type normalizeOp struct {
	Mean []float32
	Std  []float32
}

func (normalizeOp) ID() OpID      { return OpNormalize }
func (normalizeOp) Name() string  { return OpNormalize.String() }
func (normalizeOp) InKind() Kind  { return KindTensor }
func (normalizeOp) OutKind() Kind { return KindTensor }

func (op normalizeOp) Apply(a Artifact, _ *rand.Rand) (Artifact, error) {
	if a.Kind != KindTensor {
		return Artifact{}, fmt.Errorf("%w: Normalize wants tensor, got %s", ErrKindMismatch, a.Kind)
	}
	// In place: the op owns its input tensor.
	if err := a.Tensor.Normalize(op.Mean, op.Std); err != nil {
		return Artifact{}, fmt.Errorf("pipeline: normalize: %w", err)
	}
	return a, nil
}
