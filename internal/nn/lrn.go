package nn

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// LRN is local response normalization across channels (Krizhevsky et al.):
// y[c] = x[c] / (k + alpha/n · Σ_{c' in window} x[c']²)^beta.
// AlexNet and the original GoogLeNet — two of the workloads the paper's
// introduction motivates — use it; batch normalization replaced it in
// GoogLeNetBN and ResNet.
type LRN struct {
	name  string
	Size  int     // window width n (channels), odd
	Alpha float32 // scale, AlexNet default 1e-4
	Beta  float32 // exponent, AlexNet default 0.75
	K     float32 // bias, AlexNet default 2

	lastInput *tensor.Tensor
	denom     []float32   // (k + alpha/n·sum)^beta per element
	sums      []float32   // raw windowed square sums per element
	ratio     [][]float32 // per-chunk Backward scratch, reused across steps

	out, gradIn *tensor.Tensor // layer-owned results, reused while the shape repeats
}

// NewLRN constructs an LRN layer with the AlexNet constants.
func NewLRN(name string, size int) *LRN {
	if size < 1 || size%2 == 0 {
		panic(fmt.Sprintf("nn: LRN size %d must be odd and positive", size))
	}
	return &LRN{name: name, Size: size, Alpha: 1e-4, Beta: 0.75, K: 2}
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }

// Forward implements Layer.
func (l *LRN) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 {
		panic(fmt.Sprintf("nn: %s forward shape %v, want 4-D", l.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	l.lastInput = x
	l.out = tensor.Reuse(l.out, n, c, h, w)
	out := l.out
	if len(l.denom) < x.Len() {
		l.denom = make([]float32, x.Len())
		l.sums = make([]float32, x.Len())
	}
	hw := h * w
	half := l.Size / 2
	scale := l.Alpha / float32(l.Size)
	// Images are independent and write disjoint out/denom/sums ranges.
	kernels.Run(n, func(img int) {
		base := img * c * hw
		for pos := 0; pos < hw; pos++ {
			// Sliding window over channels at fixed spatial position.
			var sum float32
			for ch := 0; ch < minInt(half+1, c); ch++ {
				v := x.Data[base+ch*hw+pos]
				sum += v * v
			}
			for ch := 0; ch < c; ch++ {
				idx := base + ch*hw + pos
				l.sums[idx] = sum
				d := float32(math.Pow(float64(l.K+scale*sum), float64(l.Beta)))
				l.denom[idx] = d
				out.Data[idx] = x.Data[idx] / d
				// Advance window.
				if next := ch + half + 1; next < c {
					v := x.Data[base+next*hw+pos]
					sum += v * v
				}
				if prev := ch - half; prev >= 0 {
					v := x.Data[base+prev*hw+pos]
					sum -= v * v
				}
			}
		}
	})
	return out
}

// Backward implements Layer. With s = k + alpha/n·Σx², y = x·s^-β:
// dx[c] = dy[c]·s[c]^-β - 2αβ/n · x[c] · Σ_{c' windows c} dy[c']·y[c']/s[c'].
func (l *LRN) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := l.lastInput
	if x == nil {
		panic("nn: " + l.name + " Backward before Forward")
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hw := h * w
	half := l.Size / 2
	scale := l.Alpha / float32(l.Size)
	l.gradIn = tensor.Reuse(l.gradIn, n, c, h, w)
	gradIn := l.gradIn
	// ratio[c] = dy[c]·x[c]/(s[c]^(β+1)) precomputed per position, one
	// layer-owned scratch row per batch chunk (reused across steps — no
	// per-call allocation).
	chunks := kernels.GradChunks(n)
	if len(l.ratio) < chunks {
		l.ratio = append(l.ratio, make([][]float32, chunks-len(l.ratio))...)
	}
	for ci := 0; ci < chunks; ci++ {
		if len(l.ratio[ci]) < c {
			l.ratio[ci] = make([]float32, c)
		}
	}
	kernels.RunChunks(n, chunks, func(ci, lo, hi int) {
		ratio := l.ratio[ci][:c]
		for img := lo; img < hi; img++ {
			base := img * c * hw
			for pos := 0; pos < hw; pos++ {
				for ch := 0; ch < c; ch++ {
					idx := base + ch*hw + pos
					s := l.K + scale*l.sums[idx]
					ratio[ch] = gradOut.Data[idx] * x.Data[idx] / (s * l.denom[idx])
				}
				// Windowed sum of ratio with the same sliding technique.
				var sum float32
				for ch := 0; ch < minInt(half+1, c); ch++ {
					sum += ratio[ch]
				}
				for ch := 0; ch < c; ch++ {
					idx := base + ch*hw + pos
					gradIn.Data[idx] = gradOut.Data[idx]/l.denom[idx] - 2*l.Beta*scale*x.Data[idx]*sum
					if next := ch + half + 1; next < c {
						sum += ratio[next]
					}
					if prev := ch - half; prev >= 0 {
						sum -= ratio[prev]
					}
				}
			}
		}
	})
	return gradIn
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
