// Package sgd implements the optimizer and learning-rate schedule the paper
// trains with: mini-batch SGD with momentum and weight decay, under the
// Goyal et al. warm-start schedule ("the starting learning rate was fixed at
// 0.1, linearly ramped to 0.1·kn/256 where k is the batch size per GPU and n
// the total number of workers; 90-epoch regime with the learning rate
// dropped by a factor of 10 after every 30 epochs"). The optimizer is
// replicated or shard-aware (ZeRO-1): a shard holds momentum for one
// contiguous element range of the flattened model, and its state is what
// internal/checkpoint gathers and carves. Only momentum SGD is implemented:
// the layer-wise adaptive optimizer the paper's Table 2 credits to a
// competitor trains no run here.
package sgd

import (
	"fmt"
	"sort"

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

// SGD holds momentum state for one model replica — or, in sharded
// (ZeRO-1-style) data parallelism, for one contiguous element range of the
// flattened model: NewShard allocates momentum only for elements [lo, hi) and
// restricts updates to them, so per-rank optimizer memory and update cost
// scale as ~1/world-size. The range may cut a parameter; the update is
// elementwise, so any split gives the bits of the whole.
type SGD struct {
	cfg    Config
	params []*nn.Param
	// offsets[i] is param i's first element in the flattened model, and
	// offsets[len(params)] the model's element count.
	offsets []int
	// velocity is the momentum of elements [lo, hi), one flat slice.
	velocity []float32
	lo, hi   int
}

// New builds an optimizer over params (full replica: every element owned).
func New(params []*nn.Param, cfg Config) *SGD {
	return NewShard(params, cfg, 0, nn.ParamCount(params))
}

// NewShard builds a shard-aware optimizer: momentum is held, and updates
// applied, only for the element range [lo, hi) of the flattened params. The
// params slice still describes the whole model, so element offsets (and the
// checkpoint state layout) agree across all ranks; an empty range is legal
// (a rank that owns nothing).
func NewShard(params []*nn.Param, cfg Config, lo, hi int) *SGD {
	offsets := make([]int, len(params)+1)
	for i, p := range params {
		offsets[i+1] = offsets[i] + p.Value.Len()
	}
	if lo < 0 || hi > offsets[len(params)] || hi < lo {
		panic(fmt.Sprintf("sgd: shard [%d,%d) outside elements [0,%d)", lo, hi, offsets[len(params)]))
	}
	return &SGD{cfg: cfg, params: params, offsets: offsets, velocity: make([]float32, hi-lo), lo: lo, hi: hi}
}

// Step applies one SGD update with the given learning rate to every owned
// element, reading each parameter's accumulated gradient:
// v = m·v + (g + wd·w); w -= lr·v. Parameters flagged NoWeightDecay (BN
// scale/shift, biases) skip the decay term, matching the Torch recipe.
func (o *SGD) Step(lr float32) {
	for i, p := range o.params {
		o.StepRange(o.offsets[i], o.offsets[i+1], lr, p.Grad.Data, 1)
	}
}

// StepRange updates the owned elements of the flattened range [lo, hi),
// reading the gradient as g·scale from g (g[0] is element lo's):
// v = m·v + (g·scale + wd·w); w -= lr·v, in one pass. Elements outside the
// owned range are skipped, so a caller can hand every range it completes to
// every optimizer and let each keep its own. It is how a trainer applies a
// reduced gradient sum where it lies — no normalizing pass, no copy into each
// replica — and, the update being elementwise, any split of a vector into
// ranges gives the bits of one Step over it.
func (o *SGD) StepRange(lo, hi int, lr float32, g []float32, scale float32) {
	if len(g) != hi-lo {
		panic(fmt.Sprintf("sgd: StepRange [%d,%d) with %d gradient elements", lo, hi, len(g)))
	}
	a, b := max(lo, o.lo), min(hi, o.hi)
	// The first parameter that ends past a; the loop splits at parameter
	// boundaries, where the weight decay may change.
	i := sort.Search(len(o.params), func(i int) bool { return o.offsets[i+1] > a })
	for ; a < b; i++ {
		p, pLo := o.params[i], o.offsets[i]
		end := min(o.offsets[i+1], b)
		wd := o.cfg.WeightDecay
		if p.NoWeightDecay {
			wd = 0
		}
		kernels.MomentumStep(p.Value.Data[a-pLo:end-pLo], o.velocity[a-o.lo:end-o.lo], g[a-lo:end-lo],
			scale, wd, o.cfg.Momentum, lr)
		a = end
	}
}

// StateLen returns the number of momentum scalars this optimizer holds: the
// model's full parameter count for a replicated optimizer, the shard's
// element count for a sharded one.
func (o *SGD) StateLen() int { return o.hi - o.lo }

// FullStateLen returns the momentum element count of the whole model — what
// a rank-count-independent checkpoint stores.
func (o *SGD) FullStateLen() int { return o.offsets[len(o.params)] }

// StateBounds returns the element range [lo, hi) this optimizer's state
// occupies within the full flat state vector; checkpointing uses it to
// gather shards on save and scatter on load.
func (o *SGD) StateBounds() (lo, hi int) { return o.lo, o.hi }

// ExportState copies the held momentum into dst — the optimizer half of a
// training checkpoint (this rank's shard of it, when sharded).
func (o *SGD) ExportState(dst []float32) error {
	if len(dst) != o.StateLen() {
		return fmt.Errorf("sgd: ExportState dst size %d, want %d", len(dst), o.StateLen())
	}
	copy(dst, o.velocity)
	return nil
}

// ImportState restores momentum written by ExportState.
func (o *SGD) ImportState(src []float32) error {
	if len(src) != o.StateLen() {
		return fmt.Errorf("sgd: ImportState src size %d, want %d", len(src), o.StateLen())
	}
	copy(o.velocity, src)
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
