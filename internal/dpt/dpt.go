// Package dpt reimplements the Data-Parallel Table — the engine that
// spreads a node's mini-batch across the GPUs attached to that node — in the
// optimized form the paper proposes (Figure 4, Section 4.3).
//
// Devices are goroutine workers owning a full model replica, standing in for
// cuDNN streams on the node's four P100s. A step partitions the batch up
// front and stages each partition directly on its device; forward, the
// criterion and backward all run on the device inside one job; and the main
// thread joins each device once. Torch's stock table (Figure 3: the whole
// batch staged on device 1 and scattered from there, a serial criterion,
// serialized ending callbacks) is not built here: its cost survives only as
// internal/simcluster's DPTOverhead, an input fitted to Figure 12.
//
// Every replica's parameters live in two flat arenas per device — values and
// gradients, Torch's flattenParameters — so a range of the flattened
// gradient is a window of a slice, not a walk over parameters: Grads(0) is
// where the training step sums, exchanges and reads the gradient in place,
// Values(0) where the sharded (ZeRO-1) step allgathers parameters in place.
//
// Beyond the per-step Step/SumGrads pair, the engine exposes the
// incremental surface the upper schedules are built on: StepWithGradHook
// streams per-(device, param) gradient readiness into internal/core's
// bucket-major step order, ReduceRangeInto/ScatterRange move any range of
// the flattened gradient (a bucket, or the whole vector — then bitwise equal
// to SumGrads/SetGrads), and SetValues copies a weight vector to every
// device. How core's one step composes these is mapped in
// docs/ARCHITECTURE.md.
package dpt

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Stats counts the engine's work.
type Stats struct {
	// Steps is the number of training steps executed.
	Steps int64
	// BytesMoved counts input-tensor bytes copied from the host batch into
	// the devices' staging buffers: each row once, on its own device.
	BytesMoved int64
}

// device is one worker owning a model replica.
type device struct {
	id       int
	model    nn.Layer
	crit     *nn.SoftmaxCrossEntropy
	params   []*nn.Param
	jobs     chan func()
	done     sync.WaitGroup
	input    *tensor.Tensor // staged input partition
	loss     float64
	lo, hi   int // this step's rows of the batch (partition)
	labelBuf []int
	// step and notify are the device's step job and its per-parameter
	// readiness hook, built once in New; they read the step's batch and
	// GradHook from the Engine.
	step   func()
	notify nn.ParamHook

	// values and grads are the arenas the params' Value and Grad tensors are
	// windows of, in flattened order (nn.FlattenStorage).
	values, grads []float32
}

// stageInput copies rows [d.lo, d.hi) of x into the device's staging tensor,
// reusing it while the partition shape is unchanged (the steady state: fixed
// batch size means fixed shards). The model may retain pointers into the
// staged tensor only until its backward completes, which is strictly before
// the next step stages again.
func (d *device) stageInput(x *tensor.Tensor) {
	n := d.hi - d.lo
	if d.input == nil || d.input.Dim(0) != n || !slices.Equal(d.input.Shape()[1:], x.Shape()[1:]) {
		d.input = x.MustSliceRows(d.lo, d.hi).Clone()
		return
	}
	rowLen := d.input.Len() / n
	copy(d.input.Data, x.Data[d.lo*rowLen:d.hi*rowLen])
}

func (d *device) run(stopped *sync.WaitGroup) {
	defer stopped.Done()
	for job := range d.jobs {
		job()
		d.done.Done()
	}
}

// submit schedules fn on the device thread.
func (d *device) submit(fn func()) {
	d.done.Add(1)
	d.jobs <- fn
}

// Engine schedules training steps across the node's devices.
type Engine struct {
	devices  []*device
	gradSize int
	mu       sync.Mutex
	stats    Stats
	closed   bool
	stopped  sync.WaitGroup // the device workers, counted down as they exit

	// The step the devices' jobs run: the node batch and the readiness hook,
	// written by StepWithGradHook before it submits them.
	x      *tensor.Tensor
	labels []int
	hook   GradHook

	// offsets[i] is parameter i's start in the flattened gradient — and so
	// in every device's arenas; the reactive pipeline uses it to map
	// parameters onto fixed-size buckets.
	offsets []int
}

// New builds an engine over the given model replicas (one per device, same
// architecture). Weights are synchronized from replica 0, mirroring Torch's
// replica broadcast at construction, every replica's parameter storage is
// re-homed into the device's two arenas (nn.FlattenStorage), and every
// replica is told that its input gradient has no reader (nn.SkipInputGrad:
// a replica's input is data, and the engine drops what Backward returns).
//
// optimized must be true: the Figure 3 engine it once selected has been
// removed, and false is an error. The parameter is kept only because the
// end-to-end benchmark module (bench/layers.go) passes it and is edited only
// by a benchmark change; ROADMAP item 1's benchmark PR drops it.
func New(replicas []nn.Layer, optimized bool) (*Engine, error) {
	if !optimized {
		return nil, errors.New("dpt: the baseline (Figure 3) engine was removed; New builds only the optimized table")
	}
	if len(replicas) == 0 {
		return nil, errors.New("dpt: need at least one device")
	}
	ref := replicas[0].Params()
	e := &Engine{gradSize: nn.ParamCount(ref)}
	e.offsets = make([]int, len(ref))
	off := 0
	for i, p := range ref {
		e.offsets[i] = off
		off += p.Value.Len()
	}
	for i, m := range replicas {
		if i > 0 {
			if err := nn.CopyValues(m.Params(), ref); err != nil {
				return nil, fmt.Errorf("dpt: syncing replica %d: %w", i, err)
			}
		}
		d := &device{
			id:     i,
			model:  m,
			crit:   nn.NewSoftmaxCrossEntropy(),
			params: m.Params(),
			jobs:   make(chan func(), 4),
		}
		if len(d.params) != len(ref) {
			return nil, fmt.Errorf("dpt: replica %d has %d params, replica 0 has %d", i, len(d.params), len(ref))
		}
		d.values, d.grads = nn.FlattenStorage(d.params)
		nn.SkipInputGrad(m)
		// idx maps the device's Param pointers back to their indices (all
		// replicas share the same parameter order).
		idx := make(map[*nn.Param]int, len(d.params))
		for j, p := range d.params {
			idx[p] = j
		}
		d.step = func() { e.runStep(d) }
		d.notify = func(p *nn.Param) { e.hook(d.id, idx[p]) }
		e.stopped.Add(1)
		go d.run(&e.stopped)
		e.devices = append(e.devices, d)
	}
	return e, nil
}

// NumDevices returns the device count.
func (e *Engine) NumDevices() int { return len(e.devices) }

// GradSize returns the flattened gradient length (model parameter count).
func (e *Engine) GradSize() int { return e.gradSize }

// Params returns device dev's parameter list (device 0 is the reference
// replica for weight export).
func (e *Engine) Params(dev int) []*nn.Param { return e.devices[dev].params }

// Grads returns device dev's gradient arena: the storage of its parameters'
// Grad tensors, back to back in flattened order (length GradSize). Each
// step's backward stores into it (nn.Layer), so nothing clears it between
// steps; a step that runs no backward on the device stores zeros.
func (e *Engine) Grads(dev int) []float32 { return e.devices[dev].grads }

// Values returns device dev's weight arena: the storage of its parameters'
// Value tensors, back to back in flattened order (length GradSize).
func (e *Engine) Values(dev int) []float32 { return e.devices[dev].values }

// Stats returns a snapshot of the scheduling counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Close terminates the device workers and returns once they have exited.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, d := range e.devices {
		close(d.jobs)
	}
	e.stopped.Wait()
}

// partition splits n batch rows across devices as evenly as possible:
// device i takes rows [lo, hi).
func (e *Engine) partition(n int) {
	m, off := len(e.devices), 0
	for i, d := range e.devices {
		d.lo, d.hi = off, off+n/m
		if i < n%m {
			d.hi++
		}
		off = d.hi
	}
}

// Step runs one forward+backward over the node batch x (N,C,H,W) with
// labels, leaving each device's gradient arena holding this step's gradient
// — Algorithm 1's per-iteration gradient computation: backward stores it,
// nothing carries over from the step before — and returning the
// batch-weighted mean loss. It is StepWithGradHook with nobody listening.
func (e *Engine) Step(x *tensor.Tensor, labels []int) (float64, error) {
	return e.StepWithGradHook(x, labels, nil)
}

// SumGrads performs the intra-node gradient summation of Algorithm 1
// (∆Wi = Σj ∆Wij): the devices' gradient arenas are summed, device 0 first,
// into dst, which must have length GradSize — ReduceRangeInto over the whole
// vector.
func (e *Engine) SumGrads(dst []float32) error {
	if len(dst) != e.gradSize {
		return fmt.Errorf("dpt: SumGrads dst %d, want %d", len(dst), e.gradSize)
	}
	return e.ReduceRangeInto(dst, 0, e.gradSize)
}

// SetGrads broadcasts a flattened gradient to every device (the intra-node
// broadcast after the global allreduce in Algorithm 1) — ScatterRange over
// the whole vector.
func (e *Engine) SetGrads(flat []float32) error {
	if len(flat) != e.gradSize {
		return fmt.Errorf("dpt: SetGrads src %d, want %d", len(flat), e.gradSize)
	}
	return e.ScatterRange(0, e.gradSize, flat)
}

// Predict runs an inference pass (eval mode, no augmentation of state) over
// x, returning logits. Partitions are processed on the devices in parallel.
func (e *Engine) Predict(x *tensor.Tensor) (*tensor.Tensor, error) {
	if e.closed {
		return nil, errors.New("dpt: engine closed")
	}
	n := x.Dim(0)
	e.partition(n)
	outs := make([]*tensor.Tensor, len(e.devices))
	for i, d := range e.devices {
		if d.lo == d.hi {
			continue
		}
		part := x.MustSliceRows(d.lo, d.hi)
		dd, idx := d, i
		d.submit(func() { outs[idx] = dd.model.Forward(part.Clone(), false) })
	}
	var classes int
	for i, d := range e.devices {
		d.done.Wait()
		if outs[i] != nil {
			classes = outs[i].Dim(1)
		}
	}
	logits := tensor.New(n, classes)
	for i, d := range e.devices {
		if outs[i] != nil {
			copy(logits.Data[d.lo*classes:], outs[i].Data)
		}
	}
	return logits, nil
}
