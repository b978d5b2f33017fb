package nn

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// Linear is a fully-connected layer y = x·Wᵀ + b over (N, in) input.
// Weight layout is (out, in), matching Torch's nn.Linear.
type Linear struct {
	name         string
	In, Out      int
	Weight, Bias *Param
	params       []*Param // Weight and Bias, as Params returns them
	lastInput    *tensor.Tensor
	out, gradIn  *tensor.Tensor // layer-owned results, reused while the shape repeats
	noInputGrad  bool           // SkipInputGrad: Backward returns nil
}

// NewLinear constructs a fully-connected layer with Kaiming init.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	w := tensor.New(out, in)
	rng.FillKaiming(w, in)
	l := &Linear{
		name: name, In: in, Out: out,
		Weight: &Param{Name: name + ".weight", Value: w, Grad: tensor.New(out, in)},
		Bias:   &Param{Name: name + ".bias", Value: tensor.New(out), Grad: tensor.New(out), NoWeightDecay: true},
	}
	l.params = []*Param{l.Weight, l.Bias}
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Params implements Layer.
func (l *Linear) Params() []*Param { return l.params }

// skipInputGrad implements SkipInputGrad: Backward stops after the parameter
// gradients — the g·W product reads the whole weight matrix for a result
// nobody wants — and returns nil.
func (l *Linear) skipInputGrad() { l.noInputGrad = true }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s forward shape %v, want [N %d]", l.name, x.Shape(), l.In))
	}
	n := x.Dim(0)
	l.lastInput = x
	l.out = tensor.Reuse(l.out, n, l.Out)
	out := l.out
	// y (n×out) = x (n×in) · Wᵀ (in×out); W stored out×in so transB.
	tensor.Gemm(false, true, n, l.Out, l.In, 1, x.Data, l.Weight.Value.Data, 0, out.Data)
	for i := 0; i < n; i++ {
		row := out.Data[i*l.Out : (i+1)*l.Out]
		for j, b := range l.Bias.Value.Data {
			row[j] += b
		}
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := l.lastInput
	if x == nil {
		panic("nn: " + l.name + " Backward before Forward")
	}
	n := x.Dim(0)
	// dW (out×in) = gᵀ (out×n) · x (n×in), stored: beta 0 forms every sum
	// from +0 without reading the gradient's old contents.
	tensor.Gemm(true, false, l.Out, l.In, n, 1, gradOut.Data, x.Data, 0, l.Weight.Grad.Data)
	// db = column sums of g, from +0.
	db := l.Bias.Grad.Data
	clear(db)
	for i := 0; i < n; i++ {
		row := gradOut.Data[i*l.Out : (i+1)*l.Out]
		for j, v := range row {
			db[j] += v
		}
	}
	if l.noInputGrad {
		return nil
	}
	// dx (n×in) = g (n×out) · W (out×in)
	l.gradIn = tensor.Reuse(l.gradIn, n, l.In)
	tensor.Gemm(false, false, n, l.In, l.Out, 1, gradOut.Data, l.Weight.Value.Data, 0, l.gradIn.Data)
	return l.gradIn
}

// Flatten reshapes (N, C, H, W) to (N, C*H*W) ahead of a Linear layer.
type Flatten struct {
	name      string
	lastShape []int
	// The two views are reused while the shapes repeat; only their Data is
	// repointed at the tensor being viewed.
	out, gradIn *tensor.Tensor
}

// NewFlatten constructs a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if f.out != nil && slices.Equal(f.lastShape, x.Shape()) {
		f.out.Data = x.Data
		return f.out
	}
	f.lastShape = append(f.lastShape[:0], x.Shape()...)
	n := x.Dim(0)
	f.out, f.gradIn = x.MustView(n, x.Len()/maxInt(n, 1)), nil
	return f.out
}

// Backward implements Layer. A nil gradient — the layer after it was told
// nobody reads its input gradient (SkipInputGrad) — passes through.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if gradOut == nil {
		return nil
	}
	if f.gradIn == nil || len(f.gradIn.Data) != len(gradOut.Data) {
		f.gradIn = gradOut.MustView(f.lastShape...)
	}
	f.gradIn.Data = gradOut.Data
	return f.gradIn
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
