package nn

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// BatchNorm2D normalizes each channel over the (N, H, W) axes with learnable
// scale (gamma) and shift (beta), tracking running statistics for inference.
// GoogLeNetBN — one of the paper's two workloads — is GoogLeNet with exactly
// this layer inserted after every convolution.
type BatchNorm2D struct {
	name     string
	C        int
	Eps      float32
	Momentum float32 // running-stat update rate, Torch default 0.1

	Gamma, Beta             *Param
	params                  []*Param // Gamma and Beta, as Params returns them
	RunningMean, RunningVar *tensor.Tensor

	// forward cache
	lastInput    *tensor.Tensor
	xhat         []float32
	mean, invStd []float32

	// Layer-owned results, reused while the shape repeats, and the pool
	// tasks — built once, reading the current call's tensors through x and
	// gradOut, for the reason ReLU's comment gives.
	out, gradIn                  *tensor.Tensor
	x, gradOut                   *tensor.Tensor
	trainTask, evalTask, bwdTask func(c int)
}

// NewBatchNorm2D constructs a batch norm over c channels with gamma=1, beta=0.
func NewBatchNorm2D(name string, c int, rng *tensor.RNG) *BatchNorm2D {
	_ = rng // init is deterministic; parameter kept for constructor symmetry
	bn := &BatchNorm2D{
		name: name, C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       &Param{Name: name + ".gamma", Value: tensor.Ones(c), Grad: tensor.New(c), NoWeightDecay: true},
		Beta:        &Param{Name: name + ".beta", Value: tensor.New(c), Grad: tensor.New(c), NoWeightDecay: true},
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
		mean:        make([]float32, c),
		invStd:      make([]float32, c),
	}
	bn.params = []*Param{bn.Gamma, bn.Beta}
	bn.trainTask, bn.evalTask, bn.bwdTask = bn.forwardTrainChannel, bn.forwardEvalChannel, bn.backwardChannel
	return bn
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return b.params }

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 || x.Dim(1) != b.C {
		panic(fmt.Sprintf("nn: %s forward shape %v, want [N %d H W]", b.name, x.Shape(), b.C))
	}
	b.out = tensor.Reuse(b.out, x.Shape()...)
	b.x = x
	if train {
		b.lastInput = x
		if len(b.xhat) < x.Len() {
			b.xhat = make([]float32, x.Len())
		}
		kernels.Run(b.C, b.trainTask)
	} else {
		kernels.Run(b.C, b.evalTask)
	}
	b.x = nil
	return b.out
}

// forwardTrainChannel normalizes channel c with its batch statistics.
// Channels are independent: each task owns channel c's statistics,
// running-stat slots, and strided output range, and the per-channel
// arithmetic is exactly the serial loop — bitwise identical at any worker
// count.
func (b *BatchNorm2D) forwardTrainChannel(c int) {
	x, out := b.x, b.out
	n, hw := x.Dim(0), x.Dim(2)*x.Dim(3)
	m := n * hw // samples per channel
	var sum float64
	for i := 0; i < n; i++ {
		for _, v := range x.Data[(i*b.C+c)*hw:][:hw] {
			sum += float64(v)
		}
	}
	mean := float32(sum / float64(m))
	var varSum float64
	for i := 0; i < n; i++ {
		for _, v := range x.Data[(i*b.C+c)*hw:][:hw] {
			d := float64(v - mean)
			varSum += d * d
		}
	}
	variance := float32(varSum / float64(m))
	invStd := float32(1 / math.Sqrt(float64(variance)+float64(b.Eps)))
	b.mean[c], b.invStd[c] = mean, invStd
	// Torch updates running stats with the unbiased variance.
	unbiased := variance
	if m > 1 {
		unbiased = variance * float32(m) / float32(m-1)
	}
	b.RunningMean.Data[c] = (1-b.Momentum)*b.RunningMean.Data[c] + b.Momentum*mean
	b.RunningVar.Data[c] = (1-b.Momentum)*b.RunningVar.Data[c] + b.Momentum*unbiased
	g, bias := b.Gamma.Value.Data[c], b.Beta.Value.Data[c]
	for i := 0; i < n; i++ {
		base := (i*b.C + c) * hw
		xhat, dst := b.xhat[base:][:hw], out.Data[base:][:hw]
		for j, v := range x.Data[base:][:hw] {
			xh := (v - mean) * invStd
			xhat[j] = xh
			dst[j] = g*xh + bias
		}
	}
}

// forwardEvalChannel normalizes channel c with the running statistics.
func (b *BatchNorm2D) forwardEvalChannel(c int) {
	x, out := b.x, b.out
	n, hw := x.Dim(0), x.Dim(2)*x.Dim(3)
	mean := b.RunningMean.Data[c]
	invStd := float32(1 / math.Sqrt(float64(b.RunningVar.Data[c])+float64(b.Eps)))
	g, bias := b.Gamma.Value.Data[c], b.Beta.Value.Data[c]
	for i := 0; i < n; i++ {
		base := (i*b.C + c) * hw
		dst := out.Data[base:][:hw]
		for j, v := range x.Data[base:][:hw] {
			dst[j] = g*(v-mean)*invStd + bias
		}
	}
}

// Backward implements Layer. Standard batch-norm backward:
// dxhat = dy*gamma; dx = invStd/m * (m*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)).
func (b *BatchNorm2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := b.lastInput
	if x == nil {
		panic("nn: " + b.name + " Backward before Forward(train)")
	}
	if !gradOut.SameShape(x) {
		panic(fmt.Sprintf("nn: %s backward gradient shape %v, forward saw %v", b.name, gradOut.Shape(), x.Shape()))
	}
	b.gradIn = tensor.Reuse(b.gradIn, x.Shape()...)
	b.gradOut = gradOut
	kernels.Run(b.C, b.bwdTask)
	b.gradOut = nil
	return b.gradIn
}

// backwardChannel is one per-channel backward task: gamma/beta grads and
// gradIn ranges are channel-disjoint, reductions run serially within a
// channel.
func (b *BatchNorm2D) backwardChannel(c int) {
	x, gradOut, gradIn := b.lastInput, b.gradOut, b.gradIn
	n, hw := x.Dim(0), x.Dim(2)*x.Dim(3)
	m := float32(n * hw)
	g := b.Gamma.Value.Data[c]
	invStd := b.invStd[c]
	var sumDy, sumDyXhat float64
	for i := 0; i < n; i++ {
		base := (i*b.C + c) * hw
		xhat := b.xhat[base:][:hw]
		for j, v := range gradOut.Data[base:][:hw] {
			dy := float64(v)
			sumDy += dy
			sumDyXhat += dy * float64(xhat[j])
		}
	}
	// Stored as +0 + x, what adding to a cleared gradient gives: a negative
	// sum too small for float32 rounds to -0, and +0 + -0 is +0.
	b.Beta.Grad.Data[c] = 0 + float32(sumDy)
	b.Gamma.Grad.Data[c] = 0 + float32(sumDyXhat)
	k1 := float32(sumDy) / m
	k2 := float32(sumDyXhat) / m
	scale := g * invStd
	for i := 0; i < n; i++ {
		base := (i*b.C + c) * hw
		xhat, dst := b.xhat[base:][:hw], gradIn.Data[base:][:hw]
		for j, dy := range gradOut.Data[base:][:hw] {
			dst[j] = scale * (dy - k1 - xhat[j]*k2)
		}
	}
}
