// Package pipeline implements the preprocessing-pipeline framework at the
// heart of SOPHON's offloading model: typed intermediate artifacts with one
// wire encoding each (so every stage has a measurable transfer size) —
// stored bytes, the decoded planes, an RGB image, a tensor — the
// paper's five image-classification ops (Decode, RandomResizedCrop,
// RandomHorizontalFlip, ToTensor, Normalize), deterministic per-op
// augmentation seeding, and split execution — run a prefix of the ops on the
// storage server and the suffix on the compute node with a byte-identical
// result to running everything locally.
package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/imaging"
	"repro/internal/tensor"
)

// Kind identifies an artifact's payload type.
type Kind uint8

// Artifact kinds. In pipeline order: raw, planes, image, tensor.
const (
	KindRaw    Kind = 1 // encoded (SJPG) bytes, as stored
	KindImage  Kind = 2 // RGB pixels
	KindTensor Kind = 3 // float32 CHW tensor
	KindPlanes Kind = 4 // decoded Y/Cb/Cr planes (imaging.Planes)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRaw:
		return "raw"
	case KindImage:
		return "image"
	case KindTensor:
		return "tensor"
	case KindPlanes:
		return "planes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Artifact is the value flowing between pipeline ops. Exactly one payload
// field is set, selected by Kind. Raw and Planes payloads are immutable and
// borrowed — a store or a cache may hold them, the storage node keeps each
// offloaded object's planes for good — and never released; images and
// tensors are owned.
type Artifact struct {
	Kind   Kind
	Raw    []byte
	Planes *imaging.Planes
	Image  *imaging.Image
	Tensor *tensor.Tensor
}

// Package errors.
var (
	errKindMismatch = errors.New("pipeline: artifact kind mismatch")
	errCorrupt      = errors.New("pipeline: corrupt artifact encoding")
)

// RawArtifact wraps encoded bytes.
func RawArtifact(data []byte) Artifact { return Artifact{Kind: KindRaw, Raw: data} }

// planesArtifact wraps decoded planes.
func planesArtifact(pl *imaging.Planes) Artifact { return Artifact{Kind: KindPlanes, Planes: pl} }

// imageArtifact wraps a decoded image.
func imageArtifact(im *imaging.Image) Artifact { return Artifact{Kind: KindImage, Image: im} }

// tensorArtifact wraps a tensor.
func tensorArtifact(t *tensor.Tensor) Artifact { return Artifact{Kind: KindTensor, Tensor: t} }

const imageHeader = 1 + 8 // kind byte + W,H uint32

// RawWireSize returns the encoded size of a raw artifact with n payload
// bytes.
func RawWireSize(n int) int { return 1 + n }

// ImageWireSize returns the unpacked size of a w×h image artifact: header
// plus pixel bytes. This is the artifact-size law (the paper's Figure 1a, the
// trace generator, every model-tier table) and what the artifact occupies in
// memory. What crosses the wire is the packed form, about 0.37 of it on
// photo-like crops; only AppendEncode knows that number.
func ImageWireSize(w, h int) int { return imageHeader + w*h*imaging.Channels }

// TensorWireSize returns the encoded size of a c×h×w tensor artifact.
func TensorWireSize(c, h, w int) int { return 1 + tensor.MarshaledSize(c, h, w) }

// WireSize returns, in O(1), the artifact's unpacked encoded size — the
// quantity the paper's Figure 1a traces through the pipeline. For raw and
// tensor artifacts it is exactly len(AppendEncode(nil)). For images it is
// ImageWireSize, the in-memory charge; the packed encoding is about 0.37 of
// it on photo-like crops and never more than EncodeBound. Decoded planes are
// priced as the image they decode to, the law's decoded stage; they ship
// half of it (planesWireSize).
func (a Artifact) WireSize() int {
	switch a.Kind {
	case KindRaw:
		return 1 + len(a.Raw)
	case KindPlanes:
		return ImageWireSize(a.Planes.Dims())
	case KindImage:
		return imageHeader + a.Image.ByteSize()
	case KindTensor:
		return 1 + tensor.MarshaledSize(a.Tensor.C, a.Tensor.H, a.Tensor.W)
	default:
		return 0
	}
}

// EncodeBound returns, in O(1), the most bytes AppendEncode can append: the
// capacity that is never regrown. It is WireSize, plus for an image the one
// byte per plane that marks pixels no code can shrink as stored; for planes
// it is exactly what they encode to.
func (a Artifact) EncodeBound() int {
	switch a.Kind {
	case KindImage:
		return a.WireSize() + imaging.Channels
	case KindPlanes:
		return planesWireSize(a.Planes.Dims())
	}
	return a.WireSize()
}

// planesWireSize returns the encoded size of the planes of a w×h image: the
// kind byte, imaging.AppendPlanes's header and 1.5 B a pixel.
func planesWireSize(w, h int) int { return 1 + imaging.PlanesSize(w, h) }

// AppendEncode appends the artifact's serialization to dst and returns the
// extended slice: a kind byte followed by the payload (raw bytes verbatim;
// planes by imaging.AppendPlanes, W, H and the shifts before them; images as
// W,H plus the pixels packed losslessly by imaging.AppendPacked; tensors via
// tensor.Marshal). When dst has EncodeBound() spare capacity the
// call performs no allocation, which is how the storage executor encodes
// into pooled buffers.
func (a Artifact) AppendEncode(dst []byte) ([]byte, error) {
	switch a.Kind {
	case KindRaw:
		dst = append(dst, byte(KindRaw))
		return append(dst, a.Raw...), nil
	case KindPlanes:
		return imaging.AppendPlanes(append(dst, byte(KindPlanes)), a.Planes), nil
	case KindImage:
		im := a.Image
		var hdr [imageHeader]byte
		hdr[0] = byte(KindImage)
		binary.LittleEndian.PutUint32(hdr[1:5], uint32(im.W))
		binary.LittleEndian.PutUint32(hdr[5:9], uint32(im.H))
		return imaging.AppendPacked(append(dst, hdr[:]...), im), nil
	case KindTensor:
		dst = append(dst, byte(KindTensor))
		return a.Tensor.AppendMarshal(dst), nil
	default:
		return nil, fmt.Errorf("%w: kind %d", errCorrupt, a.Kind)
	}
}

// Release returns pooled payload buffers to the bufpool arena. Image and
// tensor payloads are owned by whoever holds the artifact; raw and planes
// payloads are borrowed (they may alias the store or a cache) and are left
// untouched.
// Call at most once; the artifact must not be used afterwards.
func (a Artifact) Release() {
	switch a.Kind {
	case KindImage:
		a.Image.Release()
	case KindTensor:
		a.Tensor.Release()
	}
}

// DecodeArtifact parses an encoded artifact. Image and tensor payloads are
// unpacked or copied into pool-backed buffers — the caller owns the result
// (Release when done) and data is never aliased. Raw and planes payloads are
// copied into plain memory since they are borrowed-by-convention and never
// released. Every rejection is errCorrupt, made before a buffer is sized from
// anything the payload cannot back.
func DecodeArtifact(data []byte) (Artifact, error) {
	if len(data) < 1 {
		return Artifact{}, fmt.Errorf("%w: empty", errCorrupt)
	}
	switch Kind(data[0]) {
	case KindRaw:
		raw := make([]byte, len(data)-1)
		copy(raw, data[1:])
		return RawArtifact(raw), nil
	case KindPlanes:
		pl, err := imaging.UnmarshalPlanes(data[1:])
		if err != nil {
			return Artifact{}, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		return planesArtifact(pl), nil
	case KindImage:
		if len(data) < imageHeader {
			return Artifact{}, fmt.Errorf("%w: short image header", errCorrupt)
		}
		w := int(binary.LittleEndian.Uint32(data[1:5]))
		h := int(binary.LittleEndian.Uint32(data[5:9]))
		im, err := imaging.Unpack(data[imageHeader:], w, h)
		if err != nil {
			return Artifact{}, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		return imageArtifact(im), nil
	case KindTensor:
		t, err := tensor.Unmarshal(data[1:])
		if err != nil {
			return Artifact{}, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		return tensorArtifact(t), nil
	default:
		return Artifact{}, fmt.Errorf("%w: kind %d", errCorrupt, data[0])
	}
}

// Equal compares artifacts by kind and payload bytes/values.
func (a Artifact) Equal(b Artifact) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindRaw:
		return bytes.Equal(a.Raw, b.Raw)
	case KindPlanes:
		return bytes.Equal(imaging.AppendPlanes(nil, a.Planes), imaging.AppendPlanes(nil, b.Planes))
	case KindImage:
		return a.Image.Equal(b.Image)
	case KindTensor:
		return a.Tensor.Equal(b.Tensor)
	default:
		return false
	}
}
