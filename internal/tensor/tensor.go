// Package tensor implements the float32 CHW tensors produced by the tail of
// the preprocessing pipeline (ToTensor, Normalize), along with a compact
// binary wire encoding. A 3×224×224 tensor encodes to ~602 KB — four bytes
// per value — which is exactly the 4× inflation the paper observes after
// ToTensor.
package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bufpool"
	"repro/internal/imaging"
)

// Tensor is a dense float32 tensor in CHW layout: Data[c*H*W + y*W + x].
type Tensor struct {
	C, H, W int
	Data    []float32
}

// Wire-format constants.
const (
	wireMagic   = "STSR"
	wireVersion = 1
	headerSize  = 4 + 1 + 3 + 4*3 // magic, version, pad, C/H/W
)

// Errors returned by this package.
var (
	errBadShape = errors.New("tensor: bad shape")
	errCorrupt  = errors.New("tensor: corrupt stream")
)

// New allocates a zero tensor with the given shape.
func New(c, h, w int) (*Tensor, error) {
	if c <= 0 || h <= 0 || w <= 0 {
		return nil, fmt.Errorf("%w: %dx%dx%d", errBadShape, c, h, w)
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}, nil
}

// newPooled allocates a tensor whose element buffer comes from the bufpool
// arena. The caller owns it; Release returns the buffer to the pool. The
// elements are NOT zeroed — callers must overwrite every value.
func newPooled(c, h, w int) (*Tensor, error) {
	if c <= 0 || h <= 0 || w <= 0 {
		return nil, fmt.Errorf("%w: %dx%dx%d", errBadShape, c, h, w)
	}
	return &Tensor{C: c, H: h, W: w, Data: bufpool.GetFloat32(c * h * w)}, nil
}

// Release returns the element buffer to the bufpool arena and clears the
// tensor. Safe on any tensor (foreign buffers are dropped, not recycled) but
// must be called at most once, after which the tensor must not be used.
func (t *Tensor) Release() {
	if t == nil || t.Data == nil {
		return
	}
	bufpool.PutFloat32(t.Data)
	t.Data = nil
	t.C, t.H, t.W = 0, 0, 0
}

// elems returns the number of elements.
func (t *Tensor) elems() int { return t.C * t.H * t.W }

// Equal reports exact equality of shape and elements. NaNs compare by bit
// pattern so deterministic pipelines remain comparable.
func (t *Tensor) Equal(o *Tensor) bool {
	if o == nil || t.C != o.C || t.H != o.H || t.W != o.W {
		return false
	}
	for i := range t.Data {
		if math.Float32bits(t.Data[i]) != math.Float32bits(o.Data[i]) {
			return false
		}
	}
	return true
}

// FromImage converts an RGB image to a float tensor scaled to [0, 1],
// matching torchvision's ToTensor: channel-major output, v/255. The result
// is pool-backed (Release when done).
func FromImage(im *imaging.Image) *Tensor {
	t, _ := newPooled(imaging.Channels, im.H, im.W)
	plane := im.H * im.W
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			i := y*im.W + x
			t.Data[i] = float32(r) / 255
			t.Data[plane+i] = float32(g) / 255
			t.Data[2*plane+i] = float32(b) / 255
		}
	}
	return t
}

// FromImageNormalized is the fused ToTensor+Normalize kernel: one pass over
// the pixels computing (v/255 - mean[c]) / std[c] directly into a pooled
// tensor, instead of a full [0,1] conversion pass followed by a full
// normalization pass. The arithmetic is the exact float32 operation sequence
// of FromImage followed by Normalize, done once per byte value and channel,
// so outputs are bit-identical to the unfused pair. mean and std must have 3
// entries and std must be non-zero.
func FromImageNormalized(im *imaging.Image, mean, std []float32) (*Tensor, error) {
	if len(mean) != imaging.Channels || len(std) != imaging.Channels {
		return nil, fmt.Errorf("%w: normalize wants %d-channel stats, got %d/%d",
			errBadShape, imaging.Channels, len(mean), len(std))
	}
	for c := 0; c < imaging.Channels; c++ {
		if std[c] == 0 {
			return nil, fmt.Errorf("%w: zero std for channel %d", errBadShape, c)
		}
	}
	t, err := newPooled(imaging.Channels, im.H, im.W)
	if err != nil {
		return nil, err
	}
	// One table per channel, each entry by FromImage's float32 step and then
	// Normalize's; do not algebraically rearrange.
	var lut [imaging.Channels][256]float32
	for c := range lut {
		for v := range lut[c] {
			x := float32(v) / 255
			lut[c][v] = (x - mean[c]) / std[c]
		}
	}
	plane := im.H * im.W
	pix := im.Pix[:3*plane]
	dr, dg, db := t.Data[:plane], t.Data[plane:2*plane], t.Data[2*plane:3*plane]
	for i := range dr {
		dr[i] = lut[0][pix[3*i]]
		dg[i] = lut[1][pix[3*i+1]]
		db[i] = lut[2][pix[3*i+2]]
	}
	return t, nil
}

// Normalize applies (v - mean[c]) / std[c] per channel in place, matching
// torchvision's Normalize. mean and std must have C entries and std must be
// non-zero.
func (t *Tensor) Normalize(mean, std []float32) error {
	if len(mean) != t.C || len(std) != t.C {
		return fmt.Errorf("%w: normalize wants %d-channel stats, got %d/%d", errBadShape, t.C, len(mean), len(std))
	}
	for c := 0; c < t.C; c++ {
		if std[c] == 0 {
			return fmt.Errorf("%w: zero std for channel %d", errBadShape, c)
		}
	}
	plane := t.H * t.W
	for c := 0; c < t.C; c++ {
		m, s := mean[c], std[c]
		seg := t.Data[c*plane : (c+1)*plane]
		for i := range seg {
			seg[i] = (seg[i] - m) / s
		}
	}
	return nil
}

// ImageNetMean and ImageNetStd are the canonical normalization constants
// used by the PyTorch ImageNet example.
var (
	ImageNetMean = []float32{0.485, 0.456, 0.406}
	ImageNetStd  = []float32{0.229, 0.224, 0.225}
)

// Marshal encodes the tensor to the STSR wire format: header plus
// little-endian float32 payload.
func (t *Tensor) Marshal() []byte {
	return t.AppendMarshal(make([]byte, 0, headerSize+4*t.elems()))
}

// AppendMarshal appends the STSR encoding to dst and returns the extended
// slice, letting callers marshal into pooled buffers without allocating.
func (t *Tensor) AppendMarshal(dst []byte) []byte {
	start := len(dst)
	n := headerSize + 4*t.elems()
	if cap(dst)-start >= n {
		dst = dst[:start+n]
	} else {
		dst = append(dst, make([]byte, n)...)
	}
	out := dst[start:]
	copy(out, wireMagic)
	out[4] = wireVersion
	binary.LittleEndian.PutUint32(out[8:12], uint32(t.C))
	binary.LittleEndian.PutUint32(out[12:16], uint32(t.H))
	binary.LittleEndian.PutUint32(out[16:20], uint32(t.W))
	for i, v := range t.Data {
		binary.LittleEndian.PutUint32(out[headerSize+4*i:], math.Float32bits(v))
	}
	return dst
}

// Unmarshal decodes an STSR stream. The returned tensor is pool-backed
// (Release when done); its data is copied out of data, never aliased.
func Unmarshal(data []byte) (*Tensor, error) {
	if len(data) < headerSize || string(data[:4]) != wireMagic {
		return nil, errCorrupt
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("%w: version %d", errCorrupt, data[4])
	}
	c := int(binary.LittleEndian.Uint32(data[8:12]))
	h := int(binary.LittleEndian.Uint32(data[12:16]))
	w := int(binary.LittleEndian.Uint32(data[16:20]))
	const maxElems = 1 << 28
	if c <= 0 || h <= 0 || w <= 0 || c*h*w > maxElems {
		return nil, fmt.Errorf("%w: shape %dx%dx%d", errCorrupt, c, h, w)
	}
	want := headerSize + 4*c*h*w
	if len(data) != want {
		return nil, fmt.Errorf("%w: have %d bytes, want %d", errCorrupt, len(data), want)
	}
	t, err := newPooled(c, h, w)
	if err != nil {
		return nil, err
	}
	for i := range t.Data {
		t.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[headerSize+4*i:]))
	}
	return t, nil
}

// MarshaledSize returns the wire size of a c×h×w tensor without building it.
func MarshaledSize(c, h, w int) int { return headerSize + 4*c*h*w }
