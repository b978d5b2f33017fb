package dpt

import (
	"errors"
	"fmt"

	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is the engine's reactive face: instead of the full-step barrier
// (Step, then SumGrads over the whole flattened vector), the step emits
// per-device gradient readiness incrementally and reduces/scatters arbitrary
// sub-ranges of the flattened gradient, so the training loop can pack
// buckets and launch inter-node communication while backward is still
// running on the devices.

// GradHook is invoked from a device's worker goroutine as each parameter's
// gradient becomes final during StepWithGradHook. dev is the device index,
// param the parameter's index (the order of Params; identical on every
// device). Implementations must be fast and must synchronize their own
// state: hooks from different devices run concurrently.
type GradHook func(dev, param int)

// NumParams returns the number of parameters per replica.
func (e *Engine) NumParams() int { return len(e.offsets) }

// ParamRange returns parameter i's [lo, hi) range in the flattened gradient.
func (e *Engine) ParamRange(i int) (lo, hi int) {
	lo = e.offsets[i]
	if i+1 < len(e.offsets) {
		return lo, e.offsets[i+1]
	}
	return lo, e.gradSize
}

// StepWithGradHook is the engine's step (paper Figure 4: partition up front,
// direct transfer, forward, criterion and backward all on the devices, one
// join per device) with incremental gradient readiness: hook fires per
// (device, parameter) as soon as that replica's gradient for the parameter
// is final — while earlier layers are still computing backward. It returns
// after every device finishes; by then hook has fired exactly
// NumDevices×NumParams times. A nil hook is the plain Step: backward runs
// without notification.
//
// The model replicas should implement nn.GradNotifier for real overlap;
// plain layers degrade to whole-model notification after backward.
func (e *Engine) StepWithGradHook(x *tensor.Tensor, labels []int, hook GradHook) (float64, error) {
	if e.closed {
		return 0, errors.New("dpt: engine closed")
	}
	n := x.Dim(0)
	if len(labels) != n {
		return 0, fmt.Errorf("dpt: %d labels for batch %d", len(labels), n)
	}
	if n < len(e.devices) {
		return 0, fmt.Errorf("dpt: batch %d smaller than device count %d", n, len(e.devices))
	}
	e.partition(n)
	e.x, e.labels, e.hook = x, labels, hook
	rowLen := x.Len() / n
	for _, d := range e.devices {
		d.submit(d.step)
		e.mu.Lock()
		e.stats.BytesMoved += int64(4 * (d.hi - d.lo) * rowLen)
		e.mu.Unlock()
	}
	// Join ALL devices before inspecting losses: the caller may tear down
	// its readiness plumbing the moment this returns an error, so no device
	// goroutine may still be firing hooks.
	for _, d := range e.devices {
		d.done.Wait()
	}
	var loss float64
	for _, d := range e.devices {
		if d.lo == d.hi {
			continue
		}
		if d.loss < 0 {
			return 0, errors.New("dpt: criterion failed on device")
		}
		loss += d.loss * float64(d.hi-d.lo)
	}
	e.mu.Lock()
	e.stats.Steps++
	e.mu.Unlock()
	return loss / float64(n), nil
}

// runStep is device d's share of StepWithGradHook, its prebuilt job.
func (e *Engine) runStep(d *device) {
	if d.lo == d.hi {
		// Empty row shard: no backward runs, so the zeros that still
		// contribute to the intra-node sum are stored here, and readiness
		// is immediate for every param.
		clear(d.grads)
		e.notifyAll(d)
		return
	}
	// Direct host->device transfer of just this partition.
	d.stageInput(e.x)
	d.labelBuf = append(d.labelBuf[:0], e.labels[d.lo:d.hi]...)
	out := d.model.Forward(d.input, true)
	loss, err := d.crit.Forward(out, d.labelBuf)
	if err != nil {
		// The step is failing and no backward will run: the gradient is
		// zero, and readiness must still complete so a pipelined caller can
		// drain instead of deadlocking.
		d.loss = -1
		clear(d.grads)
		e.notifyAll(d)
		return
	}
	d.loss = loss
	if e.hook == nil {
		d.model.Backward(d.crit.Backward())
		return
	}
	nn.BackwardNotify(d.model, d.crit.Backward(), d.notify)
}

// notifyAll reports every parameter of device d ready (no-op without a
// hook).
func (e *Engine) notifyAll(d *device) {
	if e.hook == nil {
		return
	}
	for p := range d.params {
		e.hook(d.id, p)
	}
}

// ReduceRangeInto sums the devices' gradients over the flattened range
// [lo, hi) into dst (length hi-lo), device 0 first then adding device 1, 2,
// … — element-for-element the same arithmetic order as SumGrads, so a
// bucket-by-bucket reduction is bitwise identical to the full-vector one.
// dst may be that very window of device 0's arena, Grads(0)[lo:hi] — the
// training step's case: device 0's gradient is then already in place, and
// with one device there is nothing to do at all. The caller must guarantee
// every overlapping parameter's gradient is final on every device
// (readiness established through StepWithGradHook).
func (e *Engine) ReduceRangeInto(dst []float32, lo, hi int) error {
	if err := e.checkRange("ReduceRangeInto", lo, hi, len(dst)); err != nil {
		return err
	}
	copyUnlessSame(dst, e.devices[0].grads[lo:hi])
	for _, d := range e.devices[1:] {
		kernels.AddInto(dst, d.grads[lo:hi])
	}
	return nil
}

// ScatterRange writes src (length hi-lo) into every device's gradient arena
// over the flattened range [lo, hi) — the range form of SetGrads' intra-node
// broadcast, bitwise equal to it over [0, GradSize).
func (e *Engine) ScatterRange(lo, hi int, src []float32) error {
	if err := e.checkRange("ScatterRange", lo, hi, len(src)); err != nil {
		return err
	}
	for _, d := range e.devices {
		copyUnlessSame(d.grads[lo:hi], src)
	}
	return nil
}

// SetValues writes a full flattened weight vector into every device's
// weight arena — the intra-node broadcast of restored, broadcast or
// allgathered parameters (the weight analogue of SetGrads). flat may be a
// device's own arena (Values(0) after an in-place allgather), which is then
// only copied to the others.
func (e *Engine) SetValues(flat []float32) error {
	if len(flat) != e.gradSize {
		return fmt.Errorf("dpt: SetValues src %d, want %d", len(flat), e.gradSize)
	}
	for _, d := range e.devices {
		copyUnlessSame(d.values, flat)
	}
	return nil
}

// copyUnlessSame is copy(dst, src) for equal-length slices that are either
// disjoint or the very same window of an arena, in which case there is
// nothing to move.
func copyUnlessSame(dst, src []float32) {
	if len(dst) > 0 && &dst[0] != &src[0] {
		copy(dst, src)
	}
}

// checkRange validates a flattened sub-range and its buffer length.
func (e *Engine) checkRange(op string, lo, hi, bufLen int) error {
	if hi < lo || lo < 0 || hi > e.gradSize {
		return fmt.Errorf("dpt: %s range [%d,%d) outside gradient [0,%d)", op, lo, hi, e.gradSize)
	}
	if bufLen != hi-lo {
		return fmt.Errorf("dpt: %s buffer %d, want %d", op, bufLen, hi-lo)
	}
	return nil
}
