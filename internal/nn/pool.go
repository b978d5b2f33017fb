package nn

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Pooling layers parallelize across batch images on the shared kernels
// pool: every image's output (and argmax/gradient) range is disjoint, so
// the parallel schedule is bitwise identical to the serial loop. Each layer
// owns the tensors its Forward and Backward return and reuses them while the
// shape repeats, so every element is written, zeros included. The pool tasks
// are built once and read the call's tensors through the layer's x and
// gradOut fields, for the reason ReLU's comment gives.

// checkGeometry panics, naming the layer and the offending value, on a window
// geometry no input can satisfy — which would otherwise surface at the first
// Forward as a bare divide by zero out of tensor.ConvOutSize.
func checkGeometry(name string, kh, kw, strideH, strideW, padH, padW int) {
	switch {
	case kh < 1 || kw < 1:
		panic(fmt.Sprintf("nn: %s: %d×%d window, want at least 1×1", name, kh, kw))
	case strideH < 1 || strideW < 1:
		panic(fmt.Sprintf("nn: %s: stride %d×%d, want at least 1×1", name, strideH, strideW))
	case padH < 0 || padW < 0:
		panic(fmt.Sprintf("nn: %s: padding %d×%d, want no less than 0", name, padH, padW))
	}
}

// poolOutSize returns the output size of a pooling window over x, or panics
// naming the layer when the window does not fit the padded input.
func poolOutSize(name string, x *tensor.Tensor, kh, kw, strideH, strideW, padH, padW int) (oh, ow int) {
	oh = tensor.ConvOutSize(x.Dim(2), kh, strideH, padH)
	ow = tensor.ConvOutSize(x.Dim(3), kw, strideW, padW)
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("nn: %s forward shape %v: %d×%d window does not fit the input padded by %d×%d", name, x.Shape(), kh, kw, padH, padW))
	}
	return oh, ow
}

// MaxPool2D is a max pooling layer over NCHW input.
type MaxPool2D struct {
	name             string
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int

	lastShape   []int
	argmax      []int32 // flat input index chosen for each output element
	out, gradIn *tensor.Tensor
	x, gradOut  *tensor.Tensor

	fwdTask, fwd2x2Task, bwdTask func(i int)
}

// NewMaxPool2D constructs a max pool with the given geometry.
func NewMaxPool2D(name string, kh, kw, strideH, strideW, padH, padW int) *MaxPool2D {
	checkGeometry(name, kh, kw, strideH, strideW, padH, padW)
	p := &MaxPool2D{name: name, KH: kh, KW: kw, StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW}
	p.fwdTask, p.fwd2x2Task, p.bwdTask = p.forwardImage, p.forwardImage2x2, p.backwardImage
	return p
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 {
		panic(fmt.Sprintf("nn: %s forward shape %v, want 4-D", p.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := poolOutSize(p.name, x, p.KH, p.KW, p.StrideH, p.StrideW, p.PadH, p.PadW)
	p.out = tensor.Reuse(p.out, n, c, oh, ow)
	p.lastShape = append(p.lastShape[:0], n, c, h, w)
	if len(p.argmax) < p.out.Len() {
		p.argmax = make([]int32, p.out.Len())
	}
	p.x = x
	// Disjoint 2×2 windows — every small CNN in the tree — pool
	// a row at a time on the vector kernel; any other geometry (padding,
	// overlapping windows) takes the general loop, whose values and indices
	// the kernel reproduces.
	if p.KH == 2 && p.KW == 2 && p.StrideH == 2 && p.StrideW == 2 && p.PadH == 0 && p.PadW == 0 {
		kernels.Run(n, p.fwd2x2Task)
	} else {
		kernels.Run(n, p.fwdTask)
	}
	p.x = nil
	return p.out
}

// forwardImage pools image i window by window: the taps in (ky,kx) order
// under a strict > from (−Inf, −1), so the first maximum wins a tie, NaN never
// wins, and a window of padding only keeps −Inf and −1.
func (p *MaxPool2D) forwardImage(i int) {
	x, out := p.x, p.out
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := out.Dim(2), out.Dim(3)
	oi := i * c * oh * ow
	for ch := 0; ch < c; ch++ {
		plane := x.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
		planeOff := (i*c + ch) * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				bestIdx := int32(-1)
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.StrideH - p.PadH + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.StrideW - p.PadW + kx
						if ix < 0 || ix >= w {
							continue
						}
						v := plane[iy*w+ix]
						if v > best {
							best = v
							bestIdx = int32(planeOff + iy*w + ix)
						}
					}
				}
				out.Data[oi] = best
				p.argmax[oi] = bestIdx
				oi++
			}
		}
	}
}

// forwardImage2x2 is forwardImage for 2×2 windows at stride 2 without
// padding: output row oy of a plane is kernels.MaxPool2x2 of input rows 2oy
// and 2oy+1.
func (p *MaxPool2D) forwardImage2x2(i int) {
	x, out := p.x, p.out
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := out.Dim(2), out.Dim(3)
	for pl := i * c; pl < (i+1)*c; pl++ {
		for oy := 0; oy < oh; oy++ {
			o, r := (pl*oh+oy)*ow, (pl*h+2*oy)*w
			kernels.MaxPool2x2(out.Data[o:o+ow], p.argmax[o:o+ow], x.Data[r:r+w], x.Data[r+w:r+2*w], r, w)
		}
	}
}

// Backward implements Layer: the gradient routes to the argmax positions.
func (p *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if p.lastShape == nil {
		panic("nn: " + p.name + " Backward before Forward")
	}
	p.gradIn = tensor.Reuse(p.gradIn, p.lastShape...)
	p.gradOut = gradOut
	kernels.Run(p.lastShape[0], p.bwdTask)
	p.gradOut = nil
	return p.gradIn
}

// backwardImage scatters image i's gradient. Its argmax indices point into
// its own input planes only, so the per-image tasks write disjoint ranges.
func (p *MaxPool2D) backwardImage(i int) {
	gradOut, gradIn := p.gradOut, p.gradIn
	n := p.lastShape[0]
	perImage, inPerImage := gradOut.Len()/n, gradIn.Len()/n
	lo := i * perImage
	clear(gradIn.Data[i*inPerImage : (i+1)*inPerImage])
	for oi, g := range gradOut.Data[lo : lo+perImage] {
		if idx := p.argmax[lo+oi]; idx >= 0 {
			gradIn.Data[idx] += g
		}
	}
}

// AvgPool2D is an average pooling layer over NCHW input. With kernel equal
// to the full spatial extent it is the global average pool ending ResNet-50
// and GoogLeNet.
type AvgPool2D struct {
	name             string
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	// CountIncludePad counts padded taps in the divisor (Torch default true
	// for SpatialAveragePooling without the :setCountExcludePad flag).
	CountIncludePad bool

	lastShape   []int
	out, gradIn *tensor.Tensor
	x, gradOut  *tensor.Tensor

	fwdTask, bwdTask func(i int)
}

// NewAvgPool2D constructs an average pool.
func NewAvgPool2D(name string, kh, kw, strideH, strideW, padH, padW int) *AvgPool2D {
	checkGeometry(name, kh, kw, strideH, strideW, padH, padW)
	p := &AvgPool2D{name: name, KH: kh, KW: kw, StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW}
	p.fwdTask, p.bwdTask = p.forwardImage, p.backwardImage
	return p
}

// Name implements Layer.
func (p *AvgPool2D) Name() string { return p.name }

// Params implements Layer.
func (p *AvgPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 {
		panic(fmt.Sprintf("nn: %s forward shape %v, want 4-D", p.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := poolOutSize(p.name, x, p.KH, p.KW, p.StrideH, p.StrideW, p.PadH, p.PadW)
	p.out = tensor.Reuse(p.out, n, c, oh, ow)
	p.lastShape = append(p.lastShape[:0], n, c, h, w)
	p.x = x
	kernels.Run(n, p.fwdTask)
	p.x = nil
	return p.out
}

// forwardImage averages image i window by window.
func (p *AvgPool2D) forwardImage(i int) {
	x, out := p.x, p.out
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := out.Dim(2), out.Dim(3)
	oi := i * c * oh * ow
	for ch := 0; ch < c; ch++ {
		plane := x.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var sum float32
				count := 0
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.StrideH - p.PadH + ky
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.StrideW - p.PadW + kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							sum += plane[iy*w+ix]
							count++
						} else if p.CountIncludePad {
							count++
						}
					}
				}
				if count > 0 {
					out.Data[oi] = sum / float32(count)
				} else {
					out.Data[oi] = 0
				}
				oi++
			}
		}
	}
}

// Backward implements Layer: each input tap in a window receives
// grad/windowCount.
func (p *AvgPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if p.lastShape == nil {
		panic("nn: " + p.name + " Backward before Forward")
	}
	p.gradIn = tensor.Reuse(p.gradIn, p.lastShape...)
	p.gradOut = gradOut
	kernels.Run(p.lastShape[0], p.bwdTask)
	p.gradOut = nil
	return p.gradIn
}

// backwardImage spreads image i's gradient over its windows.
func (p *AvgPool2D) backwardImage(i int) {
	gradOut, gradIn := p.gradOut, p.gradIn
	c, h, w := p.lastShape[1], p.lastShape[2], p.lastShape[3]
	oh, ow := gradOut.Dim(2), gradOut.Dim(3)
	oi := i * c * oh * ow
	for ch := 0; ch < c; ch++ {
		plane := gradIn.Data[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
		clear(plane)
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				// Recompute the divisor exactly as Forward did.
				count := 0
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.StrideH - p.PadH + ky
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.StrideW - p.PadW + kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							count++
						} else if p.CountIncludePad {
							count++
						}
					}
				}
				if count == 0 {
					oi++
					continue
				}
				g := gradOut.Data[oi] / float32(count)
				oi++
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.StrideH - p.PadH + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.StrideW - p.PadW + kx
						if ix < 0 || ix >= w {
							continue
						}
						plane[iy*w+ix] += g
					}
				}
			}
		}
	}
}

// GlobalAvgPool averages each channel plane to a single value, producing
// (N, C, 1, 1).
type GlobalAvgPool struct {
	name        string
	lastShape   []int
	out, gradIn *tensor.Tensor
	x, gradOut  *tensor.Tensor

	fwdFn, bwdFn func(lo, hi int)
}

// NewGlobalAvgPool constructs a global average pool.
func NewGlobalAvgPool(name string) *GlobalAvgPool {
	p := &GlobalAvgPool{name: name}
	p.fwdFn, p.bwdFn = p.forwardPlanes, p.backwardPlanes
	return p
}

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return p.name }

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.lastShape = append(p.lastShape[:0], n, c, h, w)
	p.out = tensor.Reuse(p.out, n, c, 1, 1)
	p.x = x
	kernels.RunRange(n*c, 8, p.fwdFn)
	p.x = nil
	return p.out
}

// forwardPlanes averages planes lo..hi-1 of the batch.
func (p *GlobalAvgPool) forwardPlanes(lo, hi int) {
	hw := p.lastShape[2] * p.lastShape[3]
	for i := lo; i < hi; i++ {
		var s float32
		for _, v := range p.x.Data[i*hw : (i+1)*hw] {
			s += v
		}
		p.out.Data[i] = s / float32(hw)
	}
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	p.gradIn = tensor.Reuse(p.gradIn, p.lastShape...)
	p.gradOut = gradOut
	kernels.RunRange(p.lastShape[0]*p.lastShape[1], 8, p.bwdFn)
	p.gradOut = nil
	return p.gradIn
}

// backwardPlanes spreads each of planes lo..hi-1's gradient over the plane.
func (p *GlobalAvgPool) backwardPlanes(lo, hi int) {
	hw := p.lastShape[2] * p.lastShape[3]
	for i := lo; i < hi; i++ {
		g := p.gradOut.Data[i] / float32(hw)
		plane := p.gradIn.Data[i*hw : (i+1)*hw]
		for j := range plane {
			plane[j] = g
		}
	}
}
