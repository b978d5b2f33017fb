// Package nn implements neural-network layers with full forward and backward
// passes on NCHW float32 tensors: convolution (on tensor.ConvPack, at any
// stride), batch normalization, pooling, linear, ReLU and the softmax
// cross-entropy criterion. It replaces the cuDNN kernels the paper's
// Torch stack schedules; the layer/criterion split mirrors Torch so the
// Data-Parallel Table engine in internal/dpt can reproduce the paper's
// scheduling structure.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is one learnable parameter with its gradient accumulator.
type Param struct {
	// Name identifies the parameter for debugging ("conv1.weight").
	Name string
	// Value is the parameter tensor, shared by reference with the layer.
	Value *tensor.Tensor
	// Grad holds the gradient; Layer.Backward stores into it — every element,
	// whatever it held before, with the bits that adding to a cleared
	// gradient would give. Under a trainer it is this replica's own gradient
	// from the end of backward until the step's pack/exchange/apply stages
	// consume it — then it is working storage (device 0's holds partial and
	// global sums in place, the other devices' are left as backward wrote
	// them) until the next backward overwrites it. It is never "the averaged
	// global gradient": the optimizer reads that once, from the reduced
	// slice, and nothing writes it back.
	Grad *tensor.Tensor
	// NoWeightDecay marks parameters (BN scale/shift, biases) excluded from
	// L2 regularization, following the Torch ResNet training recipe.
	NoWeightDecay bool
}

// Layer is one differentiable module. Backward must be called after Forward
// with a gradient of the same shape as Forward's output, and returns the
// gradient with respect to Forward's input. Layers cache whatever they need
// from the forward pass; a layer instance processes one batch at a time.
//
// Activation lifetime: the tensor Forward returns and the tensor Backward
// returns belong to the layer, which reuses them while the shape repeats (a
// shape change — a last short batch, train/eval alternation — reallocates).
// Each is valid until that layer's next Forward, respectively Backward; a
// caller that wants one step's result across the next clones it. The next
// layer may keep a pointer to its input until its own Backward (that is
// within the lifetime) and a container may add into a child's Backward result
// in place. Every layer therefore writes every element of what it returns,
// zeros included — nothing relies on a fresh allocation being clear. Nobody
// but the layer itself writes a Forward result before that layer's Backward:
// the result doubles as the layer's forward cache (ReLU gates the gradient on
// its own output).
type Layer interface {
	// Forward computes the layer output. train selects training behaviour
	// (batch statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/d(output), stores the parameter gradients —
	// overwriting Param.Grad, never adding to it: a caller that wants to
	// accumulate over several passes sums them itself — and returns
	// dL/d(input), or nil from a layer told nobody reads it (SkipInputGrad).
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty). The
	// slice may be one the layer keeps and returns on every call: read it,
	// do not modify it.
	Params() []*Param
	// Name returns a short identifier for logs.
	Name() string
}

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential builds a named sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer. It returns what the first layer returns: nil
// when that layer skips its input gradient (SkipInputGrad).
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// BackwardWithGradHook implements GradNotifier: children are visited in
// backward order (last layer first), recursing through nested containers via
// BackwardNotify, so hook fires for every parameter in the subtree as soon
// as its gradient is final. It enables pipelining gradient communication
// with the remaining backward compute, the optimization Goyal et al. use
// and the paper's related-work section describes ("pipelined the
// computation and communication of gradient of different layers").
func (s *Sequential) BackwardWithGradHook(gradOut *tensor.Tensor, hook ParamHook) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = BackwardNotify(s.Layers[i], gradOut, hook)
	}
	return gradOut
}

// skipInputGrad implements SkipInputGrad: the chain's input gradient is its
// first layer's, so the mark goes there — past a leading Flatten, which
// computes nothing and hands a nil gradient through.
func (s *Sequential) skipInputGrad() {
	for _, l := range s.Layers {
		if _, ok := l.(*Flatten); !ok {
			SkipInputGrad(l)
			return
		}
	}
}

// SkipInputGrad tells model that nobody reads the gradient with respect to
// its input — the case of a whole network under a trainer, whose input is
// data — so its input-side layer may skip computing it: Backward on the
// model then returns nil. Linear and Conv2D honour the mark (their
// parameter gradients and everything downstream are untouched, bit for bit),
// Sequential hands it to its first layer; every other layer ignores it and
// keeps returning its input gradient. The mark is permanent: do not set it on
// a layer whose Backward result something consumes.
func SkipInputGrad(model Layer) {
	if s, ok := model.(interface{ skipInputGrad() }); ok {
		s.skipInputGrad()
	}
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// ParamCount returns the total number of scalar parameters in ps.
func ParamCount(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Value.Len()
	}
	return n
}

// FlattenStorage re-homes the parameters' storage into two contiguous arenas
// — Torch's flattenParameters: values holds every Value back-to-back in
// parameter order (contents kept), grads every Grad, and each tensor's Data
// becomes its window of the arena, capacity-limited so an append can never
// run into a neighbour. Layers reach their parameters through the same
// tensors, so they follow. Afterwards the whole model's gradient is one
// slice that can be cleared, summed and exchanged in place, and a flattened
// offset means the same element in the arena and in FlattenGrads' order.
// Slices of a Data taken before the call keep pointing at the old storage.
func FlattenStorage(ps []*Param) (values, grads []float32) {
	n := ParamCount(ps)
	values, grads = make([]float32, n), make([]float32, n)
	off := 0
	for _, p := range ps {
		end := off + p.Value.Len()
		copy(values[off:end], p.Value.Data)
		copy(grads[off:end], p.Grad.Data)
		p.Value.Data = values[off:end:end]
		p.Grad.Data = grads[off:end:end]
		off = end
	}
	return values, grads
}

// FlattenGrads copies every parameter gradient into dst back-to-back, in
// parameter order. This is the contiguous reduction payload handed to
// MPI allreduce, matching how Torch-MPI flattens the gradient storage.
func FlattenGrads(ps []*Param, dst []float32) error {
	off := 0
	for _, p := range ps {
		n := p.Grad.Len()
		if off+n > len(dst) {
			return fmt.Errorf("nn: FlattenGrads dst too small: need > %d, have %d", off+n, len(dst))
		}
		copy(dst[off:off+n], p.Grad.Data)
		off += n
	}
	if off != len(dst) {
		return fmt.Errorf("nn: FlattenGrads dst size %d, want %d", len(dst), off)
	}
	return nil
}

// UnflattenGrads is the inverse of FlattenGrads: it scatters src back into
// the parameter gradients.
func UnflattenGrads(ps []*Param, src []float32) error {
	off := 0
	for _, p := range ps {
		n := p.Grad.Len()
		if off+n > len(src) {
			return fmt.Errorf("nn: UnflattenGrads src too small: need > %d, have %d", off+n, len(src))
		}
		copy(p.Grad.Data, src[off:off+n])
		off += n
	}
	if off != len(src) {
		return fmt.Errorf("nn: UnflattenGrads src size %d, want %d", len(src), off)
	}
	return nil
}

// FlattenValues copies parameter values into dst (for weight broadcast).
func FlattenValues(ps []*Param, dst []float32) error {
	off := 0
	for _, p := range ps {
		n := p.Value.Len()
		if off+n > len(dst) {
			return fmt.Errorf("nn: FlattenValues dst too small")
		}
		copy(dst[off:off+n], p.Value.Data)
		off += n
	}
	if off != len(dst) {
		return fmt.Errorf("nn: FlattenValues dst size %d, want %d", len(dst), off)
	}
	return nil
}

// UnflattenValues scatters src into the parameter values.
func UnflattenValues(ps []*Param, src []float32) error {
	off := 0
	for _, p := range ps {
		n := p.Value.Len()
		if off+n > len(src) {
			return fmt.Errorf("nn: UnflattenValues src too small")
		}
		copy(p.Value.Data, src[off:off+n])
		off += n
	}
	if off != len(src) {
		return fmt.Errorf("nn: UnflattenValues src size %d, want %d", len(src), off)
	}
	return nil
}

// ZeroGrads clears every gradient. Backward does not need it — it stores —
// but a caller that sums gradients over several passes, or wants the
// parameters a partial backward never reaches to read zero, does.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.Grad.Zero()
	}
}

// CopyValues copies parameter values from src to dst parameter lists, which
// must describe identically shaped models (used to clone replicas across
// devices and to broadcast the initial model, per Algorithm 1).
func CopyValues(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: CopyValues param count %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		if dst[i].Value.Len() != src[i].Value.Len() {
			return fmt.Errorf("nn: CopyValues param %d size %d vs %d", i, dst[i].Value.Len(), src[i].Value.Len())
		}
		copy(dst[i].Value.Data, src[i].Value.Data)
	}
	return nil
}
