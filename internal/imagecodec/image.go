package imagecodec

import (
	"fmt"

	"repro/internal/tensor"
)

// Image is an 8-bit RGB image, row-major, interleaved (R,G,B per pixel).
type Image struct {
	W, H int
	Pix  []uint8 // len = 3*W*H
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]uint8, 3*w*h)}
}

// At returns the (r,g,b) at pixel (x,y).
func (im *Image) At(x, y int) (r, g, b uint8) {
	i := 3 * (y*im.W + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set stores the (r,g,b) at pixel (x,y).
func (im *Image) Set(x, y int, r, g, b uint8) {
	i := 3 * (y*im.W + x)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	c := &Image{W: im.W, H: im.H, Pix: make([]uint8, len(im.Pix))}
	copy(c.Pix, im.Pix)
	return c
}

// Augment is the paper's training augmentation, which
// CropDecoder.DecodeApply applies: a random crop of size Crop, a random
// horizontal flip, then conversion to a normalized CHW float32 tensor.
type Augment struct {
	// Crop is the output spatial size (224 for the paper's models).
	Crop int
	// Mean and Std are per-channel normalization constants in [0,1] scale.
	Mean, Std [3]float32
}

// DefaultAugment returns the augmentation used across this repository: 224
// crops with the ImageNet channel statistics.
func DefaultAugment() Augment {
	return Augment{
		Crop: 224,
		Mean: [3]float32{0.485, 0.456, 0.406},
		Std:  [3]float32{0.229, 0.224, 0.225},
	}
}

// check rejects a frame smaller than the crop and a dst that is not one CHW
// slab.
func (a Augment) check(w, h int, dst []float32) error {
	if w < a.Crop || h < a.Crop {
		return fmt.Errorf("imagecodec: image %dx%d smaller than crop %d", w, h, a.Crop)
	}
	if len(dst) != 3*a.Crop*a.Crop {
		return fmt.Errorf("imagecodec: dst len %d, want %d", len(dst), 3*a.Crop*a.Crop)
	}
	return nil
}

// draw takes the training augmentation's three draws for a w×h frame: crop
// origin x, crop origin y, flip.
func (a Augment) draw(w, h int, rng *tensor.RNG) (cx, cy int, flip bool) {
	cx = rng.Intn(w - a.Crop + 1)
	cy = rng.Intn(h - a.Crop + 1)
	return cx, cy, rng.Float32() < 0.5
}

// norm maps one 8-bit sample of channel ch to its normalized tensor value.
func (a Augment) norm(ch int, p uint8) float32 {
	v := float32(p) / 255
	return (v - a.Mean[ch]) / a.Std[ch]
}

func clampU8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}
