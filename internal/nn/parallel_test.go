package nn

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/tensor/convref"
)

// layerRun captures everything a layer computes in one train step: forward
// output, input gradient, and every parameter gradient.
type layerRun struct {
	out, gradIn *tensor.Tensor
	paramGrads  [][]float32
}

// runLayer builds a fresh layer (identical weights via the seeded RNG), runs
// forward + backward once, and snapshots the results. A fresh layer per call
// keeps accumulated grads and reused scratch from leaking between widths.
func runLayer(build func(rng *tensor.RNG) Layer, x, gradOut *tensor.Tensor) layerRun {
	rng := tensor.NewRNG(42)
	l := build(rng)
	out := l.Forward(x, true)
	gradIn := l.Backward(gradOut)
	r := layerRun{
		out:    out.Clone(),
		gradIn: gradIn.Clone(),
	}
	for _, p := range l.Params() {
		r.paramGrads = append(r.paramGrads, append([]float32(nil), p.Grad.Data...))
	}
	return r
}

func bitsEqual(t *testing.T, label string, width int, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s width %d: length %d, want %d", label, width, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s width %d: elem %d = %v, want %v (bits %08x vs %08x)",
				label, width, i, got[i], want[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestLayersBitwiseAcrossWorkerCounts: every parallelized layer must produce
// bitwise-identical activations, input gradients, and parameter gradients
// whether the kernels pool runs 1-wide, 2-wide, or wider than GOMAXPROCS.
// This is the repo-wide determinism invariant extended to the compute path:
// worker count is scheduling noise, never arithmetic.
func TestLayersBitwiseAcrossWorkerCounts(t *testing.T) {
	widths := []int{1, 2, runtime.GOMAXPROCS(0) + 3}
	for _, tc := range layerCases() {
		x := tensor.New(tc.inShape...)
		tensor.NewRNG(7).FillNormal(x, 0, 1)
		gradOut := tensor.New(tc.outShape...)
		tensor.NewRNG(99).FillNormal(gradOut, 0, 1)

		prev := kernels.SetWorkers(1)
		ref := runLayer(tc.build, x, gradOut)
		kernels.SetWorkers(prev)

		for _, width := range widths[1:] {
			prev := kernels.SetWorkers(width)
			got := runLayer(tc.build, x, gradOut)
			kernels.SetWorkers(prev)
			bitsEqual(t, tc.name+"/out", width, got.out.Data, ref.out.Data)
			bitsEqual(t, tc.name+"/gradIn", width, got.gradIn.Data, ref.gradIn.Data)
			if len(got.paramGrads) != len(ref.paramGrads) {
				t.Fatalf("%s width %d: %d param grads, want %d", tc.name, width, len(got.paramGrads), len(ref.paramGrads))
			}
			for i := range got.paramGrads {
				bitsEqual(t, tc.name+"/paramGrad", width, got.paramGrads[i], ref.paramGrads[i])
			}
		}
	}
}

// TestLayersReuseResults holds the activation-lifetime rule: a layer that has
// already run a step — on data of the opposite sign, so every ReLU gate,
// pooling argmax and padding zero lands elsewhere — returns, for the next
// step, exactly what a layer that has seen nothing returns: the tensors it
// reuses carry nothing over, zeros included.
func TestLayersReuseResults(t *testing.T) {
	for _, tc := range layerCases() {
		x := tensor.New(tc.inShape...)
		tensor.NewRNG(7).FillNormal(x, 0, 1)
		gradOut := tensor.New(tc.outShape...)
		tensor.NewRNG(99).FillNormal(gradOut, 0, 1)
		want := runLayer(tc.build, x, gradOut)

		l := tc.build(tensor.NewRNG(42))
		neg, negGrad := x.Clone(), gradOut.Clone()
		neg.Scale(-1.5)
		negGrad.Scale(-0.5)
		l.Forward(neg, true)
		l.Backward(negGrad)
		ZeroGrads(l.Params())
		out := l.Forward(x, true)
		gradIn := l.Backward(gradOut)
		bitsEqual(t, tc.name+"/out after another step", 0, out.Data, want.out.Data)
		bitsEqual(t, tc.name+"/gradIn after another step", 0, gradIn.Data, want.gradIn.Data)
		for i, p := range l.Params() {
			bitsEqual(t, tc.name+"/paramGrad after another step", 0, p.Grad.Data, want.paramGrads[i])
		}
	}
}

// TestReLUStoresItsZeros: all-positive then all-negative through one ReLU,
// forward and backward — the second results are reused tensors and must be
// zeros that were stored, not left over.
func TestReLUStoresItsZeros(t *testing.T) {
	r := NewReLU("relu")
	pos, neg := tensor.Full(2, 3, 4, 5, 5), tensor.Full(-2, 3, 4, 5, 5)
	g := tensor.Full(7, 3, 4, 5, 5)
	out := r.Forward(pos, true)
	gradIn := r.Backward(g)
	if out.Data[11] != 2 || gradIn.Data[11] != 7 {
		t.Fatalf("positive input: out %v gradIn %v, want 2 and 7", out.Data[11], gradIn.Data[11])
	}
	out2 := r.Forward(neg, true)
	gradIn2 := r.Backward(g)
	if out2 != out || gradIn2 != gradIn {
		t.Fatal("a repeated shape did not reuse the layer-owned tensors")
	}
	for i := range out2.Data {
		if math.Float32bits(out2.Data[i]) != 0 || math.Float32bits(gradIn2.Data[i]) != 0 {
			t.Fatalf("negative input after a positive one: out[%d] = %v, gradIn[%d] = %v, want +0", i, out2.Data[i], i, gradIn2.Data[i])
		}
	}
}

type layerCase struct {
	name  string
	build func(r *tensor.RNG) Layer
	// outShape is the layer's forward shape over inShape, for sizing gradOut.
	inShape, outShape []int
}

// layerCases lists every parallelized layer over an input it parallelizes on.
func layerCases() []layerCase {
	const n, c, h, w = 6, 8, 13, 11
	in := []int{n, c, h, w}
	return []layerCase{
		{"conv", func(r *tensor.RNG) Layer {
			return NewConv2D("conv", c, 16, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: true}, r)
		}, in, []int{n, 16, h, w}},
		{"conv-stride-nobias", func(r *tensor.RNG) Layer {
			return NewConv2D("conv2", c, 4, 5, 5, 2, 2, 2, 2, ConvOpts{}, r)
		}, in, []int{n, 4, (h+2*2-5)/2 + 1, (w+2*2-5)/2 + 1}},
		// The packed path's other geometries: a 1×1 whose pack is one copy
		// per plane, a 5×5 whose pack holds five, channel counts off the
		// vector width on both sides (3 in, 6 out), a map narrower than one
		// vector, a kernel that shrinks the map, and a batch whose chunks hold
		// two images.
		{"conv-1x1", func(r *tensor.RNG) Layer {
			return NewConv2D("conv3", c, 6, 1, 1, 1, 1, 0, 0, ConvOpts{}, r)
		}, in, []int{n, 6, h, w}},
		{"conv-5x5-pad2", func(r *tensor.RNG) Layer {
			return NewConv2D("conv4", c, 6, 5, 5, 1, 1, 2, 2, ConvOpts{Bias: true}, r)
		}, in, []int{n, 6, h, w}},
		{"conv-3in-6out-narrow", func(r *tensor.RNG) Layer {
			return NewConv2D("conv5", 3, 6, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: true}, r)
		}, []int{n, 3, 9, 5}, []int{n, 6, 9, 5}},
		{"conv-nopad-batch19", func(r *tensor.RNG) Layer {
			return NewConv2D("conv6", 3, 16, 3, 5, 1, 1, 0, 1, ConvOpts{}, r)
		}, []int{19, 3, 7, 6}, []int{19, 16, 5, 4}},
		{"batchnorm", func(r *tensor.RNG) Layer {
			return NewBatchNorm2D("bn", c, r)
		}, in, []int{n, c, h, w}},
		{"maxpool", func(r *tensor.RNG) Layer {
			return NewMaxPool2D("mp", 3, 3, 2, 2, 1, 1)
		}, in, []int{n, c, (h+2-3)/2 + 1, (w+2-3)/2 + 1}},
		{"avgpool", func(r *tensor.RNG) Layer {
			return NewAvgPool2D("ap", 2, 2, 2, 2, 0, 0)
		}, in, []int{n, c, (h-2)/2 + 1, (w-2)/2 + 1}},
		{"globalavgpool", func(r *tensor.RNG) Layer {
			return NewGlobalAvgPool("gap")
		}, in, []int{n, c, 1, 1}},
		{"relu", func(r *tensor.RNG) Layer {
			return NewReLU("relu")
		}, in, []int{n, c, h, w}},
	}
}

// im2colConv is the convolution layer as it was before the packed path —
// every geometry through Im2Col, Gemm and Col2Im, the weight gradient
// accumulated per kernels.GradChunks chunk into a cleared partial and folded
// in chunk order: the reference Conv2D's geometry-chosen lowerings are held
// to, bit for bit.
func im2colConv(c *Conv2D, x, gradOut *tensor.Tensor) layerRun {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := tensor.ConvOutSize(h, c.KH, c.StrideH, c.PadH)
	outW := tensor.ConvOutSize(w, c.KW, c.StrideW, c.PadW)
	colRows, colN := c.InC*c.KH*c.KW, outH*outW
	inPlane, outPlane := c.InC*h*w, c.OutC*colN
	weights := c.Weight.Value.Data
	r := layerRun{out: tensor.New(n, c.OutC, outH, outW), gradIn: tensor.New(n, c.InC, h, w)}
	dW := make([]float32, len(weights))
	dB := make([]float32, c.OutC)
	cols, gradCols := make([]float32, colRows*colN), make([]float32, colRows*colN)
	chunks := kernels.GradChunks(n)
	for ci := 0; ci < chunks; ci++ {
		lo, hi := kernels.ChunkBounds(n, chunks, ci)
		pW, pB := make([]float32, len(weights)), make([]float32, c.OutC)
		for i := lo; i < hi; i++ {
			src := x.Data[i*inPlane : (i+1)*inPlane]
			dst := r.out.Data[i*outPlane : (i+1)*outPlane]
			g := gradOut.Data[i*outPlane : (i+1)*outPlane]
			convref.Im2Col(src, c.InC, h, w, c.KH, c.KW, c.StrideH, c.StrideW, c.PadH, c.PadW, cols)
			tensor.Gemm(false, false, c.OutC, colN, colRows, 1, weights, cols, 0, dst)
			tensor.Gemm(false, true, c.OutC, colRows, colN, 1, g, cols, 1, pW)
			tensor.Gemm(true, false, colRows, colN, c.OutC, 1, weights, g, 0, gradCols)
			convref.Col2Im(gradCols, c.InC, h, w, c.KH, c.KW, c.StrideH, c.StrideW, c.PadH, c.PadW, r.gradIn.Data[i*inPlane:(i+1)*inPlane])
			for oc := 0; oc < c.OutC; oc++ {
				var sum float32
				for j, v := range g[oc*colN : (oc+1)*colN] {
					sum += v
					if c.Bias != nil {
						dst[oc*colN+j] += c.Bias.Value.Data[oc]
					}
				}
				pB[oc] += sum
			}
		}
		for j, v := range pW {
			dW[j] += v
		}
		for j, v := range pB {
			dB[j] += v
		}
	}
	r.paramGrads = [][]float32{dW}
	if c.Bias != nil {
		r.paramGrads = append(r.paramGrads, dB)
	}
	return r
}

// TestConvMatchesIm2ColReference runs whole layers — bias on and off, batches
// on both sides of the 16-chunk cap so chunks hold one, two and three images,
// stride 1 (packed, 1×1 included) and stride 2 — against the im2col
// reference. The exhaustive geometry sweep is tensor's
// TestConvPackedMatchesIm2Col; this one holds what the layer adds around it.
func TestConvMatchesIm2ColReference(t *testing.T) {
	rng := tensor.NewRNG(61)
	for _, g := range []struct{ inC, outC, kh, kw, stride, pad, h, w int }{
		{3, 6, 3, 3, 1, 1, 9, 7}, {8, 16, 3, 3, 1, 1, 8, 8}, {16, 8, 1, 1, 1, 0, 5, 6}, {5, 4, 1, 1, 1, 1, 4, 4},
		{9, 6, 5, 5, 1, 2, 6, 10}, {4, 7, 3, 1, 1, 0, 7, 3}, {8, 8, 3, 3, 2, 1, 9, 9}, {6, 4, 1, 1, 2, 0, 8, 8},
	} {
		for _, bias := range []bool{false, true} {
			for _, n := range []int{1, 5, 19, 40} {
				conv := NewConv2D("c", g.inC, g.outC, g.kh, g.kw, g.stride, g.stride, g.pad, g.pad, ConvOpts{Bias: bias}, rng)
				if bias {
					rng.FillNormal(conv.Bias.Value, 0, 1)
				}
				x := tensor.New(n, g.inC, g.h, g.w)
				rng.FillNormal(x, 0, 1)
				out := conv.Forward(x, true)
				gradOut := tensor.New(out.Shape()...)
				rng.FillNormal(gradOut, 0, 1)
				gradIn := conv.Backward(gradOut)
				want := im2colConv(conv, x, gradOut)
				label := fmt.Sprintf("%+v bias %v", g, bias)
				bitsEqual(t, label+" out", n, out.Data, want.out.Data)
				bitsEqual(t, label+" gradIn", n, gradIn.Data, want.gradIn.Data)
				for i, p := range conv.Params() {
					bitsEqual(t, label+" "+p.Name, n, p.Grad.Data, want.paramGrads[i])
				}
			}
		}
	}
}

// TestConvBackwardScratchReuse: the tensors Forward and Backward return are
// layer-owned and reused while the shape repeats, and the per-chunk packs
// keep zero padding rows that are written once per geometry and trusted
// afterwards. Alternating two input sizes and two batch sizes on one layer
// moves every buffer between geometries — larger to smaller, so nothing is
// reallocated and stale floats sit where the other geometry's padding is —
// and every step must still match a layer that has seen nothing else.
func TestConvBackwardScratchReuse(t *testing.T) {
	for _, bias := range []bool{false, true} {
		rng := tensor.NewRNG(3)
		conv := NewConv2D("conv", 2, 3, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: bias}, rng)
		step := func(l *Conv2D, x, gradOut *tensor.Tensor) layerRun {
			ZeroGrads(l.Params())
			r := layerRun{out: l.Forward(x, true)}
			r.gradIn = l.Backward(gradOut)
			for _, p := range l.Params() {
				r.paramGrads = append(r.paramGrads, p.Grad.Data)
			}
			return r
		}
		shapes := [][]int{{4, 2, 8, 8}, {2, 2, 6, 6}, {4, 2, 6, 6}, {2, 2, 8, 8}, {4, 2, 8, 8}, {4, 2, 5, 9}}
		var prev layerRun
		for i, shape := range shapes {
			x := tensor.New(shape...)
			rng.FillNormal(x, 0, 1)
			gradOut := tensor.New(shape[0], 3, shape[2], shape[3])
			rng.FillNormal(gradOut, 0, 1)
			got := step(conv, x, gradOut)

			fresh := NewConv2D("fresh", 2, 3, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: bias}, tensor.NewRNG(1))
			if err := CopyValues(fresh.Params(), conv.Params()); err != nil {
				t.Fatal(err)
			}
			want := step(fresh, x, gradOut)
			label := fmt.Sprintf("step %d shape %v", i, shape)
			bitsEqual(t, label+" out", 0, got.out.Data, want.out.Data)
			bitsEqual(t, label+" gradIn", 0, got.gradIn.Data, want.gradIn.Data)
			for j := range got.paramGrads {
				bitsEqual(t, label+" paramGrad", 0, got.paramGrads[j], want.paramGrads[j])
			}

			// Same shape again: both results come back in the same storage.
			again := step(conv, x, gradOut)
			if &again.out.Data[0] != &got.out.Data[0] || &again.gradIn.Data[0] != &got.gradIn.Data[0] {
				t.Fatalf("%s: a repeated shape did not reuse the layer-owned tensors", label)
			}
			if i > 0 && !slices.Equal(shape, shapes[i-1]) && (got.out == prev.out || got.gradIn == prev.gradIn) {
				t.Fatalf("%s: a shape change kept the old tensors", label)
			}
			prev = got
		}
	}
}

// TestConvBackwardReusesForwardPack: Backward skips PackInput for the image a
// chunk's scratch still holds from Forward, and only for that one. Batches
// whose chunks hold one image (1, 2, 16) and several (17, 40), an eval
// Forward on other data between the train Forward and the Backward, two
// shapes alternating on one layer, and a second Backward after one Forward
// must all give the dW and dX of the im2col reference, which lowers every
// image again.
func TestConvBackwardReusesForwardPack(t *testing.T) {
	rng := tensor.NewRNG(71)
	for _, g := range []struct{ kh, stride, pad int }{{3, 1, 1}, {3, 2, 1}, {1, 2, 0}} {
		conv := NewConv2D("conv", 3, 5, g.kh, g.kh, g.stride, g.stride, g.pad, g.pad, ConvOpts{Bias: true}, rng)
		check := func(label string, x, gradOut *tensor.Tensor) {
			t.Helper()
			poisonGrads(conv.Params())
			gradIn := conv.Backward(gradOut)
			want := im2colConv(conv, x, gradOut)
			bitsEqual(t, label+" gradIn", x.Dim(0), gradIn.Data, want.gradIn.Data)
			for i, p := range conv.Params() {
				bitsEqual(t, label+" "+p.Name, x.Dim(0), p.Grad.Data, want.paramGrads[i])
			}
		}
		draw := func(n, h, w int) (x, gradOut *tensor.Tensor) {
			x = tensor.New(n, 3, h, w)
			rng.FillNormal(x, 0, 1)
			gradOut = tensor.New(n, 5, tensor.ConvOutSize(h, g.kh, g.stride, g.pad), tensor.ConvOutSize(w, g.kh, g.stride, g.pad))
			rng.FillNormal(gradOut, 0, 1)
			return x, gradOut
		}
		for step, n := range []int{1, 2, 16, 17, 40, 2, 17} {
			h, w := 8, 8
			if step%2 == 1 {
				h, w = 7, 10 // the other shape: every pack buffer changes geometry
			}
			label := fmt.Sprintf("%+v step %d batch %d", g, step, n)
			x1, _ := draw(n, h, w)
			x2, g2 := draw(n, h, w)
			conv.Forward(x1, true)
			conv.Forward(x2, false) // the Backward below is of this one
			check(label, x2, g2)
			_, g3 := draw(n, h, w)
			check(label+", second Backward", x2, g3)
		}
	}
}
