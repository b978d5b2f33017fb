package dpt

import (
	"errors"
	"fmt"
	"sort"

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

// StepWithGradHook is the optimized engine's step (paper Figure 4:
// partition up front, direct transfer, forward, criterion and backward all
// on the devices, one serialized callback per device) with incremental
// gradient readiness: hook fires per (device, parameter) as soon as that
// replica's gradient for the parameter is final — while earlier layers are
// still computing backward. It returns after every device finishes; by then
// hook has fired exactly NumDevices×NumParams times. A nil hook is the plain
// Step: backward runs without notification.
//
// The model replicas should implement nn.GradNotifier for real overlap;
// plain layers degrade to whole-model notification after backward.
func (e *Engine) StepWithGradHook(x *tensor.Tensor, labels []int, hook GradHook) (float64, error) {
	if !e.optimized {
		return 0, errors.New("dpt: StepWithGradHook requires the optimized engine (baseline scheduling serializes backward)")
	}
	sizes, err := e.partitionBatch(x, labels)
	if err != nil {
		return 0, err
	}
	n := x.Dim(0)
	rowLen := x.Len() / n
	off := 0
	for i, d := range e.devices {
		d := d // job closures must bind this iteration's device, not the shared range variable
		lo, hi := off, off+sizes[i]
		off = hi
		d.partN = hi - lo
		if d.partN == 0 {
			// Empty row shard: zeroed gradients still contribute to the
			// intra-node sum, so readiness is immediate for every param.
			d.submit(func() {
				nn.ZeroGrads(d.params)
				d.notifyAll(hook)
			})
			continue
		}
		part := x.MustSliceRows(lo, hi)
		lbl := labels[lo:hi]
		d.submit(func() {
			// Direct host->device transfer of just this partition.
			d.stageInput(part)
			d.labelBuf = append(d.labelBuf[:0], lbl...)
			nn.ZeroGrads(d.params)
			out := d.model.Forward(d.input, true)
			loss, err := d.crit.Forward(out, d.labelBuf)
			if err != nil {
				// The step is failing (gradients stay zero); readiness must
				// still complete so a pipelined caller can drain instead of
				// deadlocking.
				d.loss = -1
				d.notifyAll(hook)
				return
			}
			d.loss = loss
			if hook == nil {
				d.model.Backward(d.crit.Backward())
				return
			}
			idx := e.paramIdx[d.id]
			nn.BackwardNotify(d.model, d.crit.Backward(), func(p *nn.Param) {
				hook(d.id, idx[p])
			})
		})
		e.mu.Lock()
		e.stats.BytesMoved += int64(4 * sizes[i] * rowLen)
		e.mu.Unlock()
	}
	// Join ALL devices before inspecting losses: the caller may tear down
	// its readiness plumbing the moment this returns an error, so no device
	// goroutine may still be firing hooks.
	for _, d := range e.devices {
		d.done.Wait()
		// One ending callback per device per step.
		e.mu.Lock()
		e.stats.Serializations++
		e.mu.Unlock()
	}
	var loss float64
	for _, d := range e.devices {
		if d.partN == 0 {
			continue
		}
		if d.loss < 0 {
			return 0, errors.New("dpt: criterion failed on device")
		}
		loss += d.loss * float64(d.partN)
	}
	e.mu.Lock()
	e.stats.Steps++
	e.mu.Unlock()
	return loss / float64(n), nil
}

// notifyAll reports every parameter of the device ready (no-op without a
// hook).
func (d *device) notifyAll(hook GradHook) {
	if hook == nil {
		return
	}
	for p := range d.params {
		hook(d.id, p)
	}
}

// ParamsOverlapping returns the index range [first, last) of parameters
// whose flattened extent intersects [lo, hi).
func (e *Engine) ParamsOverlapping(lo, hi int) (first, last int) {
	// First param whose end is beyond lo.
	first = sort.Search(len(e.offsets), func(i int) bool {
		_, end := e.ParamRange(i)
		return end > lo
	})
	last = sort.Search(len(e.offsets), func(i int) bool {
		return e.offsets[i] >= hi
	})
	return first, last
}

// ReduceRangeInto sums the devices' gradients over the flattened range
// [lo, hi) into dst (length hi-lo), device 0 first then adding device 1, 2,
// … — element-for-element the same arithmetic order as SumGrads, so a
// bucket-by-bucket reduction is bitwise identical to the full-vector one,
// and ReduceRangeInto(dst, 0, GradSize) IS SumGrads without its scratch.
// The caller must guarantee every overlapping parameter's gradient is final
// on every device (readiness established through StepWithGradHook).
func (e *Engine) ReduceRangeInto(dst []float32, lo, hi int) error {
	if err := e.checkRange("ReduceRangeInto", lo, hi, len(dst)); err != nil {
		return err
	}
	first, last := e.ParamsOverlapping(lo, hi)
	for di, d := range e.devices {
		for i := first; i < last; i++ {
			pLo, pHi := e.ParamRange(i)
			s, t := max(pLo, lo), min(pHi, hi)
			g := d.params[i].Grad.Data[s-pLo : t-pLo]
			out := dst[s-lo : t-lo]
			if di == 0 {
				copy(out, g)
			} else {
				for j, v := range g {
					out[j] += v
				}
			}
		}
	}
	return nil
}

// ScatterRange writes src (length hi-lo) into every device's gradient
// accumulators over the flattened range [lo, hi) — the range form of
// SetGrads' intra-node broadcast, bitwise equal to it over [0, GradSize).
func (e *Engine) ScatterRange(lo, hi int, src []float32) error {
	for dev := range e.devices {
		if err := e.ScatterRangeDev(dev, lo, hi, src); err != nil {
			return err
		}
	}
	return nil
}

// ScatterRangeDev is ScatterRange restricted to one device: the training
// step hands the reduced gradient only to the devices whose replica an
// optimizer reads (every device when replicated, device 0 when sharded — the
// others then receive updated *weights* via SetValues after the parameter
// allgather).
func (e *Engine) ScatterRangeDev(dev, lo, hi int, src []float32) error {
	if dev < 0 || dev >= len(e.devices) {
		return fmt.Errorf("dpt: ScatterRangeDev device %d of %d", dev, len(e.devices))
	}
	if err := e.checkRange("ScatterRangeDev", lo, hi, len(src)); err != nil {
		return err
	}
	d := e.devices[dev]
	first, last := e.ParamsOverlapping(lo, hi)
	for i := first; i < last; i++ {
		pLo, pHi := e.ParamRange(i)
		s, t := max(pLo, lo), min(pHi, hi)
		copy(d.params[i].Grad.Data[s-pLo:t-pLo], src[s-lo:t-lo])
	}
	return nil
}

// FlattenValuesRange copies device dev's parameter VALUES over the flattened
// range [lo, hi) into dst (length hi-lo) — how the sharded path assembles
// its updated shard for the parameter allgather.
func (e *Engine) FlattenValuesRange(dev, lo, hi int, dst []float32) error {
	if dev < 0 || dev >= len(e.devices) {
		return fmt.Errorf("dpt: FlattenValuesRange device %d of %d", dev, len(e.devices))
	}
	if err := e.checkRange("FlattenValuesRange", lo, hi, len(dst)); err != nil {
		return err
	}
	d := e.devices[dev]
	first, last := e.ParamsOverlapping(lo, hi)
	for i := first; i < last; i++ {
		pLo, pHi := e.ParamRange(i)
		s, t := max(pLo, lo), min(pHi, hi)
		copy(dst[s-lo:t-lo], d.params[i].Value.Data[s-pLo:t-pLo])
	}
	return nil
}

// SetValues writes a full flattened weight vector into every device's
// parameters — the intra-node broadcast of allgathered parameters in the
// sharded update (the weight analogue of SetGrads).
func (e *Engine) SetValues(flat []float32) error {
	for _, d := range e.devices {
		if err := nn.UnflattenValues(d.params, flat); err != nil {
			return err
		}
	}
	return nil
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
