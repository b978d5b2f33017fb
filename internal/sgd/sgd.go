// Package sgd implements the optimizer and learning-rate schedule the paper
// trains with: mini-batch SGD with momentum and weight decay, under the
// Goyal et al. warm-start schedule ("the starting learning rate was fixed at
// 0.1, linearly ramped to 0.1·kn/256 where k is the batch size per GPU and n
// the total number of workers; 90-epoch regime with the learning rate
// dropped by a factor of 10 after every 30 epochs"). The optimizer is
// replicated or shard-aware (ZeRO-1): a shard holds momentum for one
// contiguous parameter range, and its state is what internal/checkpoint
// gathers and carves. Only momentum SGD is implemented: the layer-wise
// adaptive optimizer the paper's Table 2 credits to a competitor trains no
// run here.
package sgd

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/nn"
)

// Config sets the optimizer hyper-parameters. The defaults (momentum 0.9,
// weight decay 1e-4) are the fb.resnet.torch recipe used by the paper.
type Config struct {
	Momentum    float32
	WeightDecay float32
}

// DefaultConfig returns the paper's optimizer settings.
func DefaultConfig() Config { return Config{Momentum: 0.9, WeightDecay: 1e-4} }

// SGD holds per-parameter momentum state for one model replica — or, in
// sharded (ZeRO-1-style) data parallelism, for one rank's contiguous
// parameter shard: NewShard allocates momentum only for params [lo, hi) and
// restricts updates to them, so per-rank optimizer memory and update cost
// scale as ~1/world-size.
type SGD struct {
	cfg      Config
	params   []*nn.Param
	velocity [][]float32 // indexed by param; nil outside [shardLo, shardHi)

	shardLo, shardHi int // owned param-index range
	stateLo, stateHi int // the shard's element range within the full flat state
	fullLen          int // total momentum elements across all params
}

// New builds an optimizer over params (full replica: every param owned).
func New(params []*nn.Param, cfg Config) *SGD {
	return NewShard(params, cfg, 0, len(params))
}

// NewShard builds a shard-aware optimizer: momentum is held, and updates
// applied, only for the contiguous parameter range [lo, hi) of params. The
// params slice still describes the whole model, so parameter indices (and
// checkpoint state layout) agree across all ranks; an empty range is legal
// (a rank starved of parameters).
func NewShard(params []*nn.Param, cfg Config, lo, hi int) *SGD {
	if lo < 0 || hi > len(params) || hi < lo {
		panic(fmt.Sprintf("sgd: shard [%d,%d) outside params [0,%d)", lo, hi, len(params)))
	}
	// Momentum for [lo, hi) only, and where the shard's elements sit in the
	// full flat state vector.
	o := &SGD{cfg: cfg, params: params, velocity: make([][]float32, len(params)), shardLo: lo, shardHi: hi}
	for i, p := range params {
		n := p.Value.Len()
		if i < lo {
			o.stateLo += n
		}
		if i < hi {
			o.stateHi += n
		}
		if i >= lo && i < hi {
			o.velocity[i] = make([]float32, n)
		}
		o.fullLen += n
	}
	return o
}

// ShardRange returns the owned param-index range [lo, hi).
func (o *SGD) ShardRange() (lo, hi int) { return o.shardLo, o.shardHi }

// Owns reports whether parameter i belongs to this optimizer's shard.
func (o *SGD) Owns(i int) bool { return i >= o.shardLo && i < o.shardHi }

// Step applies one SGD update with the given learning rate to every owned
// parameter, reading each parameter's accumulated gradient:
// v = m·v + (g + wd·w); w -= lr·v. Parameters flagged NoWeightDecay (BN
// scale/shift, biases) skip the decay term, matching the Torch recipe.
func (o *SGD) Step(lr float32) {
	for i := o.shardLo; i < o.shardHi; i++ {
		o.StepParam(i, lr)
	}
}

// StepParam updates the single parameter at index i (the optimizer's
// construction order) from its own accumulated gradient. Parameter updates
// are independent, so applying them one at a time as reduced gradient
// buckets land — the reactive pipeline's per-bucket update — is bitwise
// identical to a full Step. Indices outside the shard are a no-op, so a
// per-bucket driver can count down every param uniformly and let the
// optimizer enforce ownership.
func (o *SGD) StepParam(i int, lr float32) {
	o.StepParamScaled(i, lr, o.params[i].Grad.Data, 1)
}

// StepParamScaled is StepParam reading the gradient as g·scale from the
// given slice (one element per weight) instead of the parameter's own
// accumulator: v = m·v + (g·scale + wd·w); w -= lr·v, in one pass. It is how
// a trainer applies a reduced gradient sum where it lies — no normalizing
// pass, no copy into each replica — and gives the bits of scaling g first
// and then calling StepParam.
func (o *SGD) StepParamScaled(i int, lr float32, g []float32, scale float32) {
	if !o.Owns(i) {
		return
	}
	p := o.params[i]
	wd := o.cfg.WeightDecay
	if p.NoWeightDecay {
		wd = 0
	}
	kernels.MomentumStep(p.Value.Data, o.velocity[i], g, scale, wd, o.cfg.Momentum, lr)
}

// StateLen returns the number of momentum scalars this optimizer holds: the
// model's full parameter count for a replicated optimizer, the shard's
// element count for a sharded one.
func (o *SGD) StateLen() int { return o.stateHi - o.stateLo }

// FullStateLen returns the momentum element count of the whole model — what
// a rank-count-independent checkpoint stores.
func (o *SGD) FullStateLen() int { return o.fullLen }

// StateBounds returns the element range [lo, hi) this optimizer's state
// occupies within the full flat state vector; checkpointing uses it to
// gather shards on save and scatter on load.
func (o *SGD) StateBounds() (lo, hi int) { return o.stateLo, o.stateHi }

// ExportState copies the owned momentum buffers into dst back-to-back, in
// parameter order — the optimizer half of a training checkpoint (this rank's
// shard of it, when sharded).
func (o *SGD) ExportState(dst []float32) error {
	if len(dst) != o.StateLen() {
		return fmt.Errorf("sgd: ExportState dst size %d, want %d", len(dst), o.StateLen())
	}
	off := 0
	for _, v := range o.velocity[o.shardLo:o.shardHi] {
		off += copy(dst[off:], v)
	}
	return nil
}

// ImportState restores momentum buffers written by ExportState.
func (o *SGD) ImportState(src []float32) error {
	if len(src) != o.StateLen() {
		return fmt.Errorf("sgd: ImportState src size %d, want %d", len(src), o.StateLen())
	}
	off := 0
	for _, v := range o.velocity[o.shardLo:o.shardHi] {
		off += copy(v, src[off:])
	}
	return nil
}

// Schedule maps a (fractional) epoch to a learning rate.
type Schedule interface {
	LR(epoch float64) float64
}

// WarmupStep is the paper's schedule: linear warmup from Base to Peak over
// WarmupEpochs, then Peak scaled by DropFactor^(floor(epoch/DropEvery)).
type WarmupStep struct {
	// Base is the starting learning rate (0.1 in the paper).
	Base float64
	// Peak is the post-warmup learning rate (0.1·kn/256).
	Peak float64
	// WarmupEpochs is the ramp length (5 epochs in Goyal et al.).
	WarmupEpochs float64
	// DropEvery is the step period in epochs (30 in the paper).
	DropEvery float64
	// DropFactor is the multiplicative drop (0.1 in the paper).
	DropFactor float64
}

// LR implements Schedule.
func (s WarmupStep) LR(epoch float64) float64 {
	if epoch < 0 {
		epoch = 0
	}
	if epoch < s.WarmupEpochs && s.WarmupEpochs > 0 {
		return s.Base + (s.Peak-s.Base)*epoch/s.WarmupEpochs
	}
	lr := s.Peak
	if s.DropEvery > 0 {
		drops := int(epoch / s.DropEvery)
		for i := 0; i < drops; i++ {
			lr *= s.DropFactor
		}
	}
	return lr
}

// Goyal returns the paper's schedule for batch-per-GPU k and n total GPU
// workers: base 0.1 ramped over 5 epochs to 0.1·kn/256, dropped 10× every
// 30 epochs.
func Goyal(batchPerGPU, workers int) WarmupStep {
	return WarmupStep{
		Base:         0.1,
		Peak:         0.1 * float64(batchPerGPU*workers) / 256,
		WarmupEpochs: 5,
		DropEvery:    30,
		DropFactor:   0.1,
	}
}

// Const is a fixed learning rate, for small functional experiments.
type Const float64

// LR implements Schedule.
func (c Const) LR(epoch float64) float64 { return float64(c) }

// Validate sanity-checks a schedule configuration.
func (s WarmupStep) Validate() error {
	if s.Base <= 0 || s.Peak <= 0 {
		return fmt.Errorf("sgd: non-positive learning rates %v/%v", s.Base, s.Peak)
	}
	if s.DropFactor <= 0 || s.DropFactor > 1 {
		return fmt.Errorf("sgd: drop factor %v outside (0,1]", s.DropFactor)
	}
	return nil
}
