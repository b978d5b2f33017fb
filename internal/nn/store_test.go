package nn

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/tensor/convref"
)

// The store contract (Layer.Backward, Param.Grad): backward writes every
// element of every parameter gradient without reading what was there, and
// what it writes is, bit for bit, what ZeroGrads followed by an accumulating
// backward produced. The references below ARE that accumulating arithmetic —
// a zeroed gradient, then `+=` in the layers' documented order — written out
// in the test; the layers run over gradients poisoned with NaN, so one read
// of the old contents shows. The bits differ from a naive store in exactly
// one place: a contribution of -0 lands as +0 (+0 + -0), which is why the
// upstream gradients here carry planted -0s.

var negZero = float32(math.Copysign(0, -1))

func poisonGrads(ps []*Param) {
	for _, p := range ps {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = float32(math.NaN())
		}
	}
}

// upstreamGrads returns the three upstream gradients every store test runs:
// ordinary values with -0s planted — singly, and over one whole output
// column/channel, whose bias sum is then a sum of nothing but -0 — all +0,
// and all -0.
func upstreamGrads(shape []int, channelAxisLen int) map[string]*tensor.Tensor {
	planted := tensor.New(shape...)
	tensor.NewRNG(99).FillNormal(planted, 0, 1)
	inner := 1
	for _, d := range shape[2:] {
		inner *= d
	}
	for i := range planted.Data {
		if i%7 == 3 || (i/inner)%channelAxisLen == 1 {
			planted.Data[i] = negZero
		}
	}
	allNeg := tensor.New(shape...)
	for i := range allNeg.Data {
		allNeg.Data[i] = negZero
	}
	return map[string]*tensor.Tensor{"planted -0": planted, "all +0": tensor.New(shape...), "all -0": allNeg}
}

// refLinearGrads: zeroed dW and db, then dW += gᵀ·x in Gemm's axpy order
// (row i of dW gathers s·x[p,:] over ascending p, skipping s == 0) and
// db += g row by row.
func refLinearGrads(l *Linear, x, g *tensor.Tensor) (dW, db []float32) {
	n := x.Dim(0)
	dW, db = make([]float32, l.Out*l.In), make([]float32, l.Out)
	for i := 0; i < l.Out; i++ {
		for p := 0; p < n; p++ {
			s := g.Data[p*l.Out+i]
			if s == 0 {
				continue
			}
			for j := 0; j < l.In; j++ {
				dW[i*l.In+j] += s * x.Data[p*l.In+j]
			}
		}
	}
	for p := 0; p < n; p++ {
		for j := 0; j < l.Out; j++ {
			db[j] += g.Data[p*l.Out+j]
		}
	}
	return dW, db
}

func TestLinearBackwardStores(t *testing.T) {
	const n, in, out = 5, 37, 11
	x := tensor.New(n, in)
	tensor.NewRNG(7).FillNormal(x, 0, 1)
	for name, g := range upstreamGrads([]int{n, out}, out) {
		l := NewLinear("fc", in, out, tensor.NewRNG(42))
		l.Forward(x, true)
		poisonGrads(l.Params())
		l.Backward(g)
		dW, db := refLinearGrads(l, x, g)
		bitsEqual(t, "linear dW, "+name, 0, l.Weight.Grad.Data, dW)
		bitsEqual(t, "linear db, "+name, 0, l.Bias.Grad.Data, db)
	}
}

// refConvGrads: zeroed dW and dB; per kernels.GradChunks chunk a zeroed
// partial that gathers every image's g·colsᵀ in Gemm's dot order (each
// element a sum over ascending output positions, formed from +0, then added
// to the partial) and its per-channel gradient sums; the partials added into
// dW and dB in chunk order. The packed lowering produces the bits of this
// im2col one (TestConvPackedMatchesIm2Col), so it serves both.
func refConvGrads(c *Conv2D, x, g *tensor.Tensor) (dW, dB []float32) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := tensor.ConvOutSize(h, c.KH, c.StrideH, c.PadH)
	outW := tensor.ConvOutSize(w, c.KW, c.StrideW, c.PadW)
	colRows, colN := c.InC*c.KH*c.KW, outH*outW
	dW, dB = make([]float32, c.OutC*colRows), make([]float32, c.OutC)
	cols := make([]float32, colRows*colN)
	chunks := kernels.GradChunks(n)
	for ci := 0; ci < chunks; ci++ {
		lo, hi := kernels.ChunkBounds(n, chunks, ci)
		pW, pB := make([]float32, len(dW)), make([]float32, len(dB))
		for i := lo; i < hi; i++ {
			convref.Im2Col(x.Data[i*c.InC*h*w:(i+1)*c.InC*h*w], c.InC, h, w, c.KH, c.KW, c.StrideH, c.StrideW, c.PadH, c.PadW, cols)
			gi := g.Data[i*c.OutC*colN : (i+1)*c.OutC*colN]
			for oc := 0; oc < c.OutC; oc++ {
				row := gi[oc*colN : (oc+1)*colN]
				for r := 0; r < colRows; r++ {
					var s float32
					for p, gv := range row {
						s += gv * cols[r*colN+p]
					}
					pW[oc*colRows+r] += s
				}
				var sum float32
				for _, gv := range row {
					sum += gv
				}
				pB[oc] += sum
			}
		}
		for j := range dW {
			dW[j] += pW[j]
		}
		for j := range dB {
			dB[j] += pB[j]
		}
	}
	return dW, dB
}

func TestConvBackwardStores(t *testing.T) {
	cases := []struct {
		name                 string
		k, stride, pad, size int
	}{
		{"packed 3x3", 3, 1, 1, 9},
		{"strided 3x3", 3, 2, 1, 9},
		{"packed 1x1", 1, 1, 0, 6},
	}
	const inC, outC = 3, 5
	for _, tc := range cases {
		for _, n := range []int{1, 5, 19} { // one chunk; one image a chunk; several images a chunk
			x := tensor.New(n, inC, tc.size, tc.size)
			tensor.NewRNG(7).FillNormal(x, 0, 1)
			out := tensor.ConvOutSize(tc.size, tc.k, tc.stride, tc.pad)
			for name, g := range upstreamGrads([]int{n, outC, out, out}, outC) {
				c := NewConv2D("c", inC, outC, tc.k, tc.k, tc.stride, tc.stride, tc.pad, tc.pad, ConvOpts{Bias: true}, tensor.NewRNG(42))
				c.Forward(x, true)
				poisonGrads(c.Params())
				c.Backward(g)
				dW, dB := refConvGrads(c, x, g)
				bitsEqual(t, tc.name+" dW, "+name, n, c.Weight.Grad.Data, dW)
				bitsEqual(t, tc.name+" dB, "+name, n, c.Bias.Grad.Data, dB)
			}
		}
	}
}

// refBatchNormGrads: zeroed dγ and dβ, then each channel's float64 sums —
// in backwardChannel's order, over the x̂ the layer's forward cached — added
// as float32.
func refBatchNormGrads(b *BatchNorm2D, g *tensor.Tensor) (dGamma, dBeta []float32) {
	n, hw := g.Dim(0), g.Dim(2)*g.Dim(3)
	dGamma, dBeta = make([]float32, b.C), make([]float32, b.C)
	for c := 0; c < b.C; c++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*b.C + c) * hw
			for j, v := range g.Data[base:][:hw] {
				sumDy += float64(v)
				sumDyXhat += float64(v) * float64(b.xhat[base+j])
			}
		}
		dBeta[c] += float32(sumDy)
		dGamma[c] += float32(sumDyXhat)
	}
	return dGamma, dBeta
}

func TestBatchNormBackwardStores(t *testing.T) {
	const n, c, size = 4, 3, 5
	x := tensor.New(n, c, size, size)
	tensor.NewRNG(7).FillNormal(x, 0, 1)
	grads := upstreamGrads([]int{n, c, size, size}, c)
	// A negative sum too small for float32: float32(sum) is -0, and only the
	// +0 it is added to makes the gradient +0. The smallest float32 times an
	// x̂ below a half is such a sum (γ is 1 and β 0, so the output is x̂).
	xhat := NewBatchNorm2D("bn", c, nil).Forward(x, true).Data[:size*size]
	tiny := tensor.New(n, c, size, size)
	for j, xh := range xhat {
		if xh != 0 && math.Abs(float64(xh)) < 0.4 {
			tiny.Data[j] = float32(math.Copysign(math.SmallestNonzeroFloat32, -float64(xh)))
			grads["underflowing negative sum"] = tiny
			break
		}
	}
	if len(grads) != 4 {
		t.Fatal("no x̂ in (0, 0.4) to build the underflow case from")
	}
	for name, g := range grads {
		bn := NewBatchNorm2D("bn", c, nil)
		bn.Forward(x, true)
		poisonGrads(bn.Params())
		bn.Backward(g)
		dGamma, dBeta := refBatchNormGrads(bn, g)
		bitsEqual(t, "batchnorm dgamma, "+name, 0, bn.Gamma.Grad.Data, dGamma)
		bitsEqual(t, "batchnorm dbeta, "+name, 0, bn.Beta.Grad.Data, dBeta)
	}
}

// An empty batch runs no chunk and no product: backward stores exact zeros.
func TestBackwardStoresZerosForEmptyBatch(t *testing.T) {
	layers := map[string]struct {
		l       Layer
		in, out []int
	}{
		"linear":       {NewLinear("fc", 6, 4, tensor.NewRNG(1)), []int{0, 6}, []int{0, 4}},
		"packed conv":  {NewConv2D("c", 2, 3, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: true}, tensor.NewRNG(1)), []int{0, 2, 5, 5}, []int{0, 3, 5, 5}},
		"strided conv": {NewConv2D("c", 2, 3, 3, 3, 2, 2, 1, 1, ConvOpts{Bias: true}, tensor.NewRNG(1)), []int{0, 2, 5, 5}, []int{0, 3, 3, 3}},
	}
	for name, tc := range layers {
		tc.l.Forward(tensor.New(tc.in...), true)
		poisonGrads(tc.l.Params())
		tc.l.Backward(tensor.New(tc.out...))
		for _, p := range tc.l.Params() {
			for i, v := range p.Grad.Data {
				if math.Float32bits(v) != 0 {
					t.Fatalf("%s, empty batch: %s[%d] = %v (bits %08x), want +0", name, p.Name, i, v, math.Float32bits(v))
				}
			}
		}
	}
}

// backwardEach runs a chain backward one layer at a time — what
// Sequential.Backward does — and returns every layer's result (cloned; nil
// where a layer returned nil).
func backwardEach(s *Sequential, g *tensor.Tensor) []*tensor.Tensor {
	res := make([]*tensor.Tensor, len(s.Layers))
	for i := len(s.Layers) - 1; i >= 0; i-- {
		g = s.Layers[i].Backward(g)
		if g != nil {
			res[i] = g.Clone()
		}
	}
	return res
}

// TestSkipInputGrad: the mark reaches the model's input-side layer — through
// nested Sequentials and past a leading Flatten — and costs nothing but the
// input gradient: that layer's parameter gradients, and every later layer's
// parameter gradients and input gradient, keep their bits; Backward on the
// model returns nil. Layers that do not honour the mark ignore it.
func TestSkipInputGrad(t *testing.T) {
	builds := map[string]struct {
		build func(rng *tensor.RNG) *Sequential
		in    []int
	}{
		"flatten-linear": {func(rng *tensor.RNG) *Sequential {
			return NewSequential("mlp", NewFlatten("fl"), NewLinear("fc1", 48, 9, rng), NewReLU("r"), NewLinear("fc2", 9, 4, rng))
		}, []int{3, 3, 4, 4}},
		"nested packed conv": {func(rng *tensor.RNG) *Sequential {
			stem := NewSequential("stem", NewConv2D("c1", 3, 4, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: true}, rng), NewBatchNorm2D("bn", 4, rng), NewReLU("r"))
			return NewSequential("cnn", stem, NewConv2D("c2", 4, 5, 3, 3, 1, 1, 1, 1, ConvOpts{}, rng), NewFlatten("fl"), NewLinear("fc", 5*6*6, 4, rng))
		}, []int{5, 3, 6, 6}},
		"strided conv": {func(rng *tensor.RNG) *Sequential {
			return NewSequential("cnn", NewConv2D("c1", 3, 4, 3, 3, 2, 2, 1, 1, ConvOpts{}, rng), NewReLU("r"), NewFlatten("fl"), NewLinear("fc", 4*3*3, 4, rng))
		}, []int{5, 3, 6, 6}},
	}
	for name, tc := range builds {
		x := tensor.New(tc.in...)
		tensor.NewRNG(7).FillNormal(x, 0, 1)
		plain, marked := tc.build(tensor.NewRNG(42)), tc.build(tensor.NewRNG(42))
		SkipInputGrad(marked)
		out := plain.Forward(x, true)
		marked.Forward(x, true)
		g := tensor.New(out.Shape()...)
		tensor.NewRNG(99).FillNormal(g, 0, 1)
		poisonGrads(plain.Params())
		poisonGrads(marked.Params())
		want, got := backwardEach(plain, g), backwardEach(marked, g)
		first := 0
		if _, ok := plain.Layers[0].(*Flatten); ok {
			first = 1
		}
		for i := range want {
			switch {
			case i <= first:
				if got[i] != nil {
					t.Fatalf("%s: marked layer %d (%s) still returns an input gradient", name, i, marked.Layers[i].Name())
				}
				if want[i] == nil {
					t.Fatalf("%s: unmarked layer %d returned nil", name, i)
				}
			default:
				bitsEqual(t, name+": gradIn of later layer "+plain.Layers[i].Name(), 0, got[i].Data, want[i].Data)
			}
		}
		wp, gp := plain.Params(), marked.Params()
		for i := range wp {
			bitsEqual(t, name+": "+wp[i].Name, 0, gp[i].Grad.Data, wp[i].Grad.Data)
		}
		marked.Forward(x, true)
		if marked.Backward(g) != nil {
			t.Fatalf("%s: Backward on the marked model returns an input gradient", name)
		}
	}

	// ReLU does not honour the mark, and Sequential must not pass it beyond
	// its first layer: the Linear behind the ReLU keeps computing dX.
	relu := NewSequential("m", NewReLU("r"), NewLinear("fc", 6, 3, tensor.NewRNG(1)))
	SkipInputGrad(relu)
	x := tensor.New(2, 6)
	tensor.NewRNG(7).FillNormal(x, 0, 1)
	relu.Forward(x, true)
	if relu.Backward(tensor.New(2, 3)) == nil {
		t.Fatal("a model whose first layer ignores the mark lost its input gradient")
	}
}
