package nn

import (
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// reluGrain is the smallest per-task range for elementwise activation
// kernels; below it fork-join overhead dominates the loop. The vector kernels
// stream 512 KiB in ≈ 15 µs, about what waking a helper and waiting for it
// costs (at 1<<14, the grain of the scalar loops, forking a 32 Ki-element ReLU
// took 16.5 µs where one worker takes 9.3).
const reluGrain = 1 << 17

// ReLU is the rectified linear activation, applied elementwise.
type ReLU struct {
	name string
	// The kernel closures are built once and read the current tensors
	// through these fields: a func literal handed to kernels.Run escapes,
	// so per-call closures would put an allocation per activation on the
	// training hot path (gated by benchtool allocs).
	x, gradOut *tensor.Tensor
	// Layer-owned results, reused while the shape repeats. out is also the
	// forward cache: it is positive exactly where the input was, so Backward
	// gates on it and no mask is kept beside it (nn.Layer: nobody else
	// writes out before then).
	out, gradIn  *tensor.Tensor
	fwdFn, bwdFn func(lo, hi int)
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = tensor.Reuse(r.out, x.Shape()...)
	r.x = x
	if r.fwdFn == nil {
		// Elementwise with disjoint writes: range boundaries cannot affect
		// bits. The zeros are stored, not assumed: out is reused.
		r.fwdFn = func(lo, hi int) { kernels.RectifyInto(r.out.Data[lo:hi], r.x.Data[lo:hi]) }
	}
	kernels.RunRange(x.Len(), reluGrain, r.fwdFn)
	r.x = nil
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	r.gradIn = tensor.Reuse(r.gradIn, gradOut.Shape()...)
	r.gradOut = gradOut
	if r.bwdFn == nil {
		r.bwdFn = func(lo, hi int) {
			kernels.GateInto(r.gradIn.Data[lo:hi], r.gradOut.Data[lo:hi], r.out.Data[lo:hi])
		}
	}
	kernels.RunRange(gradOut.Len(), reluGrain, r.bwdFn)
	r.gradOut = nil
	return r.gradIn
}
