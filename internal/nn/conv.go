package nn

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// convScratch is one batch chunk's private workspace: the input pack and the
// gradOut pack plus the partial weight/bias gradient accumulators. Chunks run
// concurrently on the kernels pool, each touching only its own scratch.
type convScratch struct {
	image, grad []float32
	// held is the image of lastInput whose pack image holds, -1 when that is
	// not known: every Forward records it, Backward skips PackInput for that
	// image, and re-sizing or re-zeroing the buffer forgets it.
	held int
	// imageZeroedFor and gradZeroedFor are the pack geometry whose padding
	// rows the buffers currently hold as zeros. Packing writes image rows
	// only and trusts the rest, so a buffer last used under another geometry
	// is cleared first.
	imageZeroedFor, gradZeroedFor *tensor.ConvPack
	dW, dB                        []float32
}

// Conv2D is a 2-D convolution over NCHW input. Weight layout is
// (outC, inC, kh, kw); bias is optional (the ResNet and GoogLeNetBN recipes
// run conv without bias when followed by BN).
//
// Every geometry runs on tensor.ConvPack (docs/ARCHITECTURE.md, "Convolution
// without the column matrix"): the image is packed into kw shifted, strided
// copies of each padded plane and the forward, weight-gradient and
// input-gradient products read their operands from the pack in place — the
// column matrix is never written. Backward packs an image again only when the
// chunk's pack no longer holds it: with at most kernels.GradChunks images a
// batch a chunk is one image, still packed from Forward.
//
// Forward and Backward parallelize across batch images on the shared
// kernels pool. Output activations and input gradients are written to
// disjoint per-image ranges (any schedule is bitwise-deterministic); weight
// and bias gradients accumulate into per-chunk partial buffers over the
// fixed kernels.GradChunks batch partition and are folded in chunk order —
// a pure function of the batch size, never of the worker count — so dW is
// bitwise identical whether the pool runs 1-wide or GOMAXPROCS-wide.
//
// The tensors Forward and Backward return are owned by the layer and reused
// while the shape repeats: each is valid until the same method's next call.
type Conv2D struct {
	name                     string
	InC, OutC                int
	KH, KW                   int
	StrideH, StrideW         int
	PadH, PadW               int
	Weight, Bias             *Param
	params                   []*Param // Weight and any Bias, as Params returns them
	lastInput                *tensor.Tensor
	scratch                  []convScratch // per-chunk workspaces, reused across steps
	out, gradIn              *tensor.Tensor
	lastH, lastW, outH, outW int
	// pack is the geometry of the last Forward.
	pack *tensor.ConvPack
	// noInputGrad (SkipInputGrad): Backward computes the parameter gradients
	// only and returns nil — gradIn stays nil.
	noInputGrad bool

	// The pool tasks are built once and read the current call's tensors
	// through these fields, for the reason ReLU's comment gives.
	gradOut          *tensor.Tensor
	chunks           int
	fwdTask, bwdTask func(chunk int)
	foldTask         func(lo, hi int)
}

// ConvOpts selects optional conv features.
type ConvOpts struct {
	// Bias adds a per-output-channel bias term.
	Bias bool
}

// NewConv2D constructs a convolution with Kaiming-normal initialized weights.
func NewConv2D(name string, inC, outC, kh, kw, strideH, strideW, padH, padW int, opts ConvOpts, rng *tensor.RNG) *Conv2D {
	checkGeometry(name, kh, kw, strideH, strideW, padH, padW)
	if inC < 1 || outC < 1 {
		panic(fmt.Sprintf("nn: %s: %d input and %d output channels, want at least 1 of each", name, inC, outC))
	}
	w := tensor.New(outC, inC, kh, kw)
	rng.FillKaiming(w, inC*kh*kw)
	c := &Conv2D{
		name: name, InC: inC, OutC: outC,
		KH: kh, KW: kw, StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
		Weight: &Param{Name: name + ".weight", Value: w, Grad: tensor.New(outC, inC, kh, kw)},
	}
	c.params = []*Param{c.Weight}
	if opts.Bias {
		c.Bias = &Param{Name: name + ".bias", Value: tensor.New(outC), Grad: tensor.New(outC), NoWeightDecay: true}
		c.params = []*Param{c.Weight, c.Bias}
	}
	c.fwdTask, c.bwdTask, c.foldTask = c.forwardChunk, c.backwardChunk, c.foldWeightGrad
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return c.params }

// skipInputGrad implements SkipInputGrad: Backward leaves out the input-
// gradient product and everything that only feeds it — PackGradOut, GradInput
// and the gradOut pack's scratch — and returns nil.
func (c *Conv2D) skipInputGrad() { c.noInputGrad, c.gradIn = true, nil }

// ensureScratch sizes the per-chunk workspaces for the current geometry and
// batch: the input pack for every chunk, and — when backward is set — the
// partial dW/dB accumulators plus, unless the input gradient is skipped, the
// gradOut pack. Everything the tasks index is sized here, never per call.
func (c *Conv2D) ensureScratch(backward bool) {
	if len(c.scratch) < c.chunks {
		c.scratch = append(c.scratch, make([]convScratch, c.chunks-len(c.scratch))...)
	}
	for i := range c.scratch[:c.chunks] {
		s := &c.scratch[i]
		if n := c.pack.InputPackLen(); len(s.image) < n || s.imageZeroedFor != c.pack {
			s.image, s.imageZeroedFor, s.held = sizePack(s.image, n), c.pack, -1
		}
		if !backward {
			continue
		}
		if n := c.pack.GradOutPackLen(); !c.noInputGrad && (len(s.grad) < n || s.gradZeroedFor != c.pack) {
			s.grad, s.gradZeroedFor = sizePack(s.grad, n), c.pack
		}
		if wLen := c.Weight.Value.Len(); len(s.dW) < wLen {
			s.dW = make([]float32, wLen)
		}
		if c.Bias != nil && len(s.dB) < c.OutC {
			s.dB = make([]float32, c.OutC)
		}
	}
}

// sizePack returns n zeroed floats for a pack of a geometry other than the
// one buf was last zeroed for — buf itself, cleared, when it is long enough:
// its stale contents would otherwise sit where the new geometry's padding
// rows are.
func sizePack(buf []float32, n int) []float32 {
	if len(buf) < n {
		return make([]float32, n)
	}
	clear(buf[:n])
	return buf
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s forward shape %v, want [N %d H W]", c.name, x.Shape(), c.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := tensor.ConvOutSize(h, c.KH, c.StrideH, c.PadH)
	outW := tensor.ConvOutSize(w, c.KW, c.StrideW, c.PadW)
	if outH == 0 || outW == 0 {
		panic(fmt.Sprintf("nn: %s forward shape %v: %d×%d kernel does not fit the input padded by %d×%d", c.name, x.Shape(), c.KH, c.KW, c.PadH, c.PadW))
	}
	if p := c.pack; p == nil || p.H != h || p.W != w { // the first Forward, or a new input size
		c.pack = tensor.NewConvPack(c.InC, c.OutC, h, w, c.KH, c.KW, c.StrideH, c.StrideW, c.PadH, c.PadW)
	}
	c.lastInput = x
	c.lastH, c.lastW, c.outH, c.outW = h, w, outH, outW
	c.out = tensor.Reuse(c.out, n, c.OutC, outH, outW)
	// The fixed kernels.GradChunks partition, one pool task per chunk: what
	// the weight gradient's fold order hangs on.
	c.chunks = kernels.GradChunks(n)
	c.ensureScratch(false)
	kernels.Run(c.chunks, c.fwdTask)
	return c.out
}

// forwardChunk computes the outputs of one chunk's images and leaves the
// last of them packed in the chunk's scratch.
func (c *Conv2D) forwardChunk(ci int) {
	lo, hi := kernels.ChunkBounds(c.lastInput.Dim(0), c.chunks, ci)
	s := &c.scratch[ci]
	x, weights := c.lastInput, c.Weight.Value.Data
	colN := c.outH * c.outW
	inPlane, outPlane := c.InC*c.lastH*c.lastW, c.OutC*colN
	s.held = hi - 1
	for i := lo; i < hi; i++ {
		dst := c.out.Data[i*outPlane : (i+1)*outPlane]
		c.pack.PackInput(s.image, x.Data[i*inPlane:(i+1)*inPlane])
		c.pack.Forward(weights, s.image, dst)
		if c.Bias != nil {
			for oc := 0; oc < c.OutC; oc++ {
				b := c.Bias.Value.Data[oc]
				row := dst[oc*colN : (oc+1)*colN]
				for j := range row {
					row[j] += b
				}
			}
		}
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic("nn: " + c.name + " Backward before Forward")
	}
	n := x.Dim(0)
	if gradOut.NumDims() != 4 || gradOut.Dim(0) != n || gradOut.Dim(1) != c.OutC || gradOut.Dim(2) != c.outH || gradOut.Dim(3) != c.outW {
		panic(fmt.Sprintf("nn: %s backward gradient shape %v, forward produced [%d %d %d %d]", c.name, gradOut.Shape(), n, c.OutC, c.outH, c.outW))
	}
	if !c.noInputGrad {
		c.gradIn = tensor.Reuse(c.gradIn, n, c.InC, c.lastH, c.lastW)
	}
	if n == 0 {
		// No chunk ran, so no partial holds this step's gradient: it is zero.
		c.Weight.Grad.Zero()
		if c.Bias != nil {
			c.Bias.Grad.Zero()
		}
		return c.gradIn
	}
	c.gradOut = gradOut
	c.ensureScratch(true)
	kernels.Run(c.chunks, c.bwdTask)
	c.gradOut = nil
	// Fold the partials in chunk order — ascending chunks cover ascending
	// image ranges, so the fold is the fixed-image-order left fold no matter
	// how many workers computed the partials. Parallel over weight elements:
	// each element's chunk-order sum is independent.
	kernels.RunRange(c.Weight.Value.Len(), 4096, c.foldTask)
	if c.Bias != nil {
		bg := c.Bias.Grad.Data
		copy(bg, c.scratch[0].dB[:c.OutC]) // formed from +0, like the dW partials
		for ci := 1; ci < c.chunks; ci++ {
			for j, v := range c.scratch[ci].dB[:c.OutC] {
				bg[j] += v
			}
		}
	}
	return c.gradIn
}

// backwardChunk accumulates the weight and bias gradients of one chunk's
// images into the chunk's partials and writes their input gradients.
func (c *Conv2D) backwardChunk(ci int) {
	lo, hi := kernels.ChunkBounds(c.lastInput.Dim(0), c.chunks, ci)
	s := &c.scratch[ci]
	x, weights := c.lastInput, c.Weight.Value.Data
	colN := c.outH * c.outW
	inPlane, outPlane := c.InC*c.lastH*c.lastW, c.OutC*colN
	dW := s.dW[:len(weights)]
	var dB []float32
	if c.Bias != nil {
		dB = s.dB[:c.OutC]
		clear(dB)
	}
	for i := lo; i < hi; i++ {
		g := c.gradOut.Data[i*outPlane : (i+1)*outPlane]
		// The pack is recomputed, not kept per image from Forward (the
		// standard recompute trade-off) — unless it is the one Forward left.
		if s.held != i {
			c.pack.PackInput(s.image, x.Data[i*inPlane:(i+1)*inPlane])
			s.held = i
		}
		// The chunk's first image stores its weight gradient (0 + the sum,
		// what adding it to a cleared partial gives) and the rest add to it,
		// so the partial is never cleared.
		c.pack.GradWeight(g, s.image, dW, i > lo)
		if !c.noInputGrad {
			c.pack.PackGradOut(s.grad, g)
			c.pack.GradInput(weights, s.grad, c.gradIn.Data[i*inPlane:(i+1)*inPlane])
		}
		if dB != nil {
			for oc := 0; oc < c.OutC; oc++ {
				var sum float32
				row := g[oc*colN : (oc+1)*colN]
				for _, v := range row {
					sum += v
				}
				dB[oc] += sum
			}
		}
	}
}

// foldWeightGrad stores the chunk-order sum of every chunk's partial into
// weight-gradient elements [lo,hi). The first partial is copied: its sums
// were formed from +0 and are never -0, so the copy is bit for bit the
// 0 + partial that adding it to a cleared gradient gave.
func (c *Conv2D) foldWeightGrad(lo, hi int) {
	wg := c.Weight.Grad.Data[lo:hi]
	copy(wg, c.scratch[0].dW[lo:hi])
	for ci := 1; ci < c.chunks; ci++ {
		kernels.AddInto(wg, c.scratch[ci].dW[lo:hi])
	}
}
