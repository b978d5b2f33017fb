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

// ResizeShorter scales the image so its shorter side equals target,
// preserving aspect ratio — the paper's DIMD preprocessing ("we resized the
// images such that shorter dimension is of size 256"). Bilinear sampling.
func ResizeShorter(im *Image, target int) *Image {
	var w, h int
	if im.W < im.H {
		w = target
		h = (im.H*target + im.W/2) / im.W
	} else {
		h = target
		w = (im.W*target + im.H/2) / im.H
	}
	return Resize(im, w, h)
}

// Resize produces a w×h bilinear resampling of im.
func Resize(im *Image, w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imagecodec: resize to %dx%d", w, h))
	}
	out := NewImage(w, h)
	xScale := float64(im.W) / float64(w)
	yScale := float64(im.H) / float64(h)
	for y := 0; y < h; y++ {
		sy := (float64(y)+0.5)*yScale - 0.5
		y0 := int(sy)
		if sy < 0 {
			sy, y0 = 0, 0
		}
		y1 := y0 + 1
		if y1 >= im.H {
			y1 = im.H - 1
		}
		fy := sy - float64(y0)
		for x := 0; x < w; x++ {
			sx := (float64(x)+0.5)*xScale - 0.5
			x0 := int(sx)
			if sx < 0 {
				sx, x0 = 0, 0
			}
			x1 := x0 + 1
			if x1 >= im.W {
				x1 = im.W - 1
			}
			fx := sx - float64(x0)
			for ch := 0; ch < 3; ch++ {
				p00 := float64(im.Pix[3*(y0*im.W+x0)+ch])
				p01 := float64(im.Pix[3*(y0*im.W+x1)+ch])
				p10 := float64(im.Pix[3*(y1*im.W+x0)+ch])
				p11 := float64(im.Pix[3*(y1*im.W+x1)+ch])
				v := p00*(1-fx)*(1-fy) + p01*fx*(1-fy) + p10*(1-fx)*fy + p11*fx*fy
				out.Pix[3*(y*w+x)+ch] = clampU8(v)
			}
		}
	}
	return out
}

// Crop extracts the rectangle of size cw×ch at origin (cx, cy).
func Crop(im *Image, cx, cy, cw, ch int) (*Image, error) {
	if cx < 0 || cy < 0 || cx+cw > im.W || cy+ch > im.H {
		return nil, fmt.Errorf("imagecodec: crop %dx%d@(%d,%d) outside %dx%d", cw, ch, cx, cy, im.W, im.H)
	}
	out := NewImage(cw, ch)
	for y := 0; y < ch; y++ {
		src := im.Pix[3*((cy+y)*im.W+cx) : 3*((cy+y)*im.W+cx+cw)]
		dst := out.Pix[3*y*cw : 3*(y+1)*cw]
		copy(dst, src)
	}
	return out, nil
}

// FlipHorizontal mirrors the image left-right in place.
func FlipHorizontal(im *Image) {
	for y := 0; y < im.H; y++ {
		row := im.Pix[3*y*im.W : 3*(y+1)*im.W]
		for x, xr := 0, im.W-1; x < xr; x, xr = x+1, xr-1 {
			for ch := 0; ch < 3; ch++ {
				row[3*x+ch], row[3*xr+ch] = row[3*xr+ch], row[3*x+ch]
			}
		}
	}
}

// Augment applies the paper's training augmentation: random crop of size
// crop from the image (after the caller's resize), random horizontal flip,
// then conversion to a normalized CHW float32 tensor.
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

// Apply writes the augmented image into dst, a CHW tensor slab of size
// 3*Crop*Crop. rng drives crop position and flip.
func (a Augment) Apply(im *Image, rng *tensor.RNG, dst []float32) error {
	if err := a.check(im.W, im.H, dst); err != nil {
		return err
	}
	cx, cy, flip := a.draw(im.W, im.H, rng)
	plane := a.Crop * a.Crop
	for y := 0; y < a.Crop; y++ {
		for x := 0; x < a.Crop; x++ {
			sx := cx + x
			if flip {
				sx = cx + a.Crop - 1 - x
			}
			i := 3 * ((cy+y)*im.W + sx)
			for ch := 0; ch < 3; ch++ {
				dst[ch*plane+y*a.Crop+x] = a.norm(ch, im.Pix[i+ch])
			}
		}
	}
	return nil
}

// CenterCropTensor converts the center crop to a normalized CHW tensor slab
// (the validation-time transform).
func (a Augment) CenterCropTensor(im *Image, dst []float32) error {
	if err := a.check(im.W, im.H, dst); err != nil {
		return err
	}
	cx := (im.W - a.Crop) / 2
	cy := (im.H - a.Crop) / 2
	plane := a.Crop * a.Crop
	for y := 0; y < a.Crop; y++ {
		for x := 0; x < a.Crop; x++ {
			i := 3 * ((cy+y)*im.W + cx + x)
			for ch := 0; ch < 3; ch++ {
				dst[ch*plane+y*a.Crop+x] = a.norm(ch, im.Pix[i+ch])
			}
		}
	}
	return nil
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
