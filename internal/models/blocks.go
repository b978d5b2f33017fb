package models

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Residual wraps a main path and an optional shortcut projection with the
// post-addition ReLU, implementing He et al.'s residual connection:
// y = ReLU(Body(x) + Shortcut(x)), Shortcut defaulting to identity.
type Residual struct {
	name     string
	Body     nn.Layer
	Shortcut nn.Layer // nil means identity
	// out and masked (gradOut gated by the post-add ReLU) are the block's
	// own, reused while the shape repeats (nn.Layer, "Activation lifetime").
	// out is positive exactly where the sum was, so it is the gate.
	out, masked *tensor.Tensor
}

// NewResidual constructs a residual block. shortcut may be nil for identity.
func NewResidual(name string, body, shortcut nn.Layer) *Residual {
	return &Residual{name: name, Body: body, Shortcut: shortcut}
}

// Name implements nn.Layer.
func (r *Residual) Name() string { return r.name }

// Params implements nn.Layer.
func (r *Residual) Params() []*nn.Param {
	ps := r.Body.Params()
	if r.Shortcut != nil {
		ps = append(ps, r.Shortcut.Params()...)
	}
	return ps
}

// Forward implements nn.Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := r.Body.Forward(x, train)
	short := x
	if r.Shortcut != nil {
		short = r.Shortcut.Forward(x, train)
	}
	if !main.SameShape(short) {
		panic(fmt.Sprintf("models: %s residual shapes differ: %v vs %v", r.name, main.Shape(), short.Shape()))
	}
	r.out = tensor.Reuse(r.out, main.Shape()...)
	kernels.AddRectifyInto(r.out.Data, main.Data, short.Data)
	return r.out
}

// Backward implements nn.Layer.
func (r *Residual) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return r.BackwardWithGradHook(gradOut, nil)
}

// BackwardWithGradHook implements nn.GradNotifier, propagating readiness
// notification into both the main path and the shortcut projection — the
// branch parameters a child-granularity hook would miss.
func (r *Residual) BackwardWithGradHook(gradOut *tensor.Tensor, hook nn.ParamHook) *tensor.Tensor {
	r.masked = tensor.Reuse(r.masked, gradOut.Shape()...)
	g := r.masked
	kernels.GateInto(g.Data, gradOut.Data, r.out.Data)
	gradIn := nn.BackwardNotify(r.Body, g, hook)
	if r.Shortcut != nil {
		gradIn.Add(nn.BackwardNotify(r.Shortcut, g, hook))
	} else {
		gradIn.Add(g)
	}
	return gradIn
}

// Branches runs several sub-networks on the same input and concatenates
// their outputs along the channel axis — the inception module's join. Every
// branch must produce the same N, H, W.
type Branches struct {
	name     string
	Paths    []nn.Layer
	chansOut []int
	inShape  []int
	// The concatenated output, the summed input gradient and each path's
	// slice of the output gradient are the container's own, reused while the
	// shapes repeat.
	out, gradIn *tensor.Tensor
	outs, split []*tensor.Tensor
}

// NewBranches constructs a channel-concat container over paths.
func NewBranches(name string, paths ...nn.Layer) *Branches {
	return &Branches{name: name, Paths: paths}
}

// Name implements nn.Layer.
func (b *Branches) Name() string { return b.name }

// Params implements nn.Layer.
func (b *Branches) Params() []*nn.Param {
	var ps []*nn.Param
	for _, p := range b.Paths {
		ps = append(ps, p.Params()...)
	}
	return ps
}

// Forward implements nn.Layer.
func (b *Branches) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b.inShape = append(b.inShape[:0], x.Shape()...)
	if len(b.outs) != len(b.Paths) {
		b.outs, b.split = make([]*tensor.Tensor, len(b.Paths)), make([]*tensor.Tensor, len(b.Paths))
	}
	outs := b.outs
	b.chansOut = b.chansOut[:0]
	totalC := 0
	for i, p := range b.Paths {
		outs[i] = p.Forward(x, train)
		if i > 0 {
			if outs[i].Dim(0) != outs[0].Dim(0) || outs[i].Dim(2) != outs[0].Dim(2) || outs[i].Dim(3) != outs[0].Dim(3) {
				panic(fmt.Sprintf("models: %s branch %d shape %v incompatible with %v", b.name, i, outs[i].Shape(), outs[0].Shape()))
			}
		}
		b.chansOut = append(b.chansOut, outs[i].Dim(1))
		totalC += outs[i].Dim(1)
	}
	n, h, w := outs[0].Dim(0), outs[0].Dim(2), outs[0].Dim(3)
	b.out = tensor.Reuse(b.out, n, totalC, h, w)
	out := b.out
	hw := h * w
	for img := 0; img < n; img++ {
		cOff := 0
		for i, o := range outs {
			c := b.chansOut[i]
			src := o.Data[img*c*hw : (img+1)*c*hw]
			dst := out.Data[(img*totalC+cOff)*hw : (img*totalC+cOff+c)*hw]
			copy(dst, src)
			cOff += c
		}
	}
	return out
}

// Backward implements nn.Layer.
func (b *Branches) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return b.BackwardWithGradHook(gradOut, nil)
}

// BackwardWithGradHook implements nn.GradNotifier: each path's slice of the
// concatenated gradient is split off and run backward with the hook, so
// every inception-branch parameter is reported as soon as its path finishes.
func (b *Branches) BackwardWithGradHook(gradOut *tensor.Tensor, hook nn.ParamHook) *tensor.Tensor {
	n, h, w := gradOut.Dim(0), gradOut.Dim(2), gradOut.Dim(3)
	totalC := gradOut.Dim(1)
	hw := h * w
	b.gradIn = tensor.Reuse(b.gradIn, b.inShape...)
	gradIn := b.gradIn
	gradIn.Zero()
	cOff := 0
	for i, p := range b.Paths {
		c := b.chansOut[i]
		b.split[i] = tensor.Reuse(b.split[i], n, c, h, w)
		gb := b.split[i]
		for img := 0; img < n; img++ {
			src := gradOut.Data[(img*totalC+cOff)*hw : (img*totalC+cOff+c)*hw]
			dst := gb.Data[img*c*hw : (img+1)*c*hw]
			copy(dst, src)
		}
		gradIn.Add(nn.BackwardNotify(p, gb, hook))
		cOff += c
	}
	return gradIn
}

// convBN returns the conv→BN→ReLU unit both architectures are built from.
func convBN(name string, inC, outC, kh, kw, sh, sw, ph, pw int, rng *tensor.RNG) *nn.Sequential {
	return nn.NewSequential(name,
		nn.NewConv2D(name+".conv", inC, outC, kh, kw, sh, sw, ph, pw, nn.ConvOpts{}, rng),
		nn.NewBatchNorm2D(name+".bn", outC, rng),
		nn.NewReLU(name+".relu"),
	)
}

// convBNNoReLU is convBN without the activation (used before residual adds).
func convBNNoReLU(name string, inC, outC, kh, kw, sh, sw, ph, pw int, rng *tensor.RNG) *nn.Sequential {
	return nn.NewSequential(name,
		nn.NewConv2D(name+".conv", inC, outC, kh, kw, sh, sw, ph, pw, nn.ConvOpts{}, rng),
		nn.NewBatchNorm2D(name+".bn", outC, rng),
	)
}
