// Package imaging implements the pixel-level substrate for the preprocessing
// pipeline: an interleaved RGB image type, geometric transforms
// (crop/resize/flip), a synthetic photo generator, and SJPG — a real lossy
// codec (YCbCr conversion, chroma subsampling, delta prediction, DEFLATE)
// that stands in for JPEG so that raw sample sizes vary with image content
// the way the paper's datasets do.
package imaging

import (
	"errors"
	"fmt"

	"repro/internal/bufpool"
)

// Image is an 8-bit RGB image with interleaved pixels. Pix holds
// W*H*3 bytes in row-major order: R,G,B for (0,0), then (1,0), ...
type Image struct {
	W, H int
	Pix  []uint8
}

// Channels is the number of interleaved channels per pixel.
const Channels = 3

// errBadDimensions reports a non-positive or inconsistent image geometry.
var errBadDimensions = errors.New("imaging: bad dimensions")

// newImage allocates a zeroed (black) image of the given size.
func newImage(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", errBadDimensions, w, h)
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h*Channels)}, nil
}

// MustNew is newImage for sizes known to be valid; it panics on error.
func MustNew(w, h int) *Image {
	im, err := newImage(w, h)
	if err != nil {
		panic(err)
	}
	return im
}

// newPooled allocates an image whose pixel buffer comes from the bufpool
// arena. The caller owns the image; calling Release when done returns the
// buffer to the pool. The pixels are NOT zeroed — callers must overwrite
// every byte (Decode and CropResizeInto both do).
func newPooled(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", errBadDimensions, w, h)
	}
	return &Image{W: w, H: h, Pix: bufpool.GetBytes(w * h * Channels)}, nil
}

// Release returns the pixel buffer to the bufpool arena and clears the
// image. It is safe on any image — buffers that did not come from the pool
// (newImage, FromPix over foreign memory) are dropped, not recycled — but must be
// called at most once, after which the image must not be used.
func (im *Image) Release() {
	if im == nil || im.Pix == nil {
		return
	}
	bufpool.PutBytes(im.Pix)
	im.Pix = nil
	im.W, im.H = 0, 0
}

// ByteSize returns the in-memory size of the pixel buffer.
func (im *Image) ByteSize() int { return len(im.Pix) }

// offset returns the index of the R byte of pixel (x, y).
func (im *Image) offset(x, y int) int { return (y*im.W + x) * Channels }

// At returns the RGB triple at (x, y). Callers must pass in-bounds
// coordinates.
func (im *Image) At(x, y int) (r, g, b uint8) {
	o := im.offset(x, y)
	return im.Pix[o], im.Pix[o+1], im.Pix[o+2]
}

// Equal reports whether two images have identical geometry and pixels.
func (im *Image) Equal(other *Image) bool {
	if other == nil || im.W != other.W || im.H != other.H {
		return false
	}
	for i := range im.Pix {
		if im.Pix[i] != other.Pix[i] {
			return false
		}
	}
	return true
}

// String summarizes the image for logs.
func (im *Image) String() string {
	return fmt.Sprintf("Image(%dx%d, %dB)", im.W, im.H, im.ByteSize())
}
