package models_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// watched stands in for one layer of a model: it copies what the layer's
// Forward returned and, as the layer's Backward is entered, holds the tensor
// to the copy.
type watched struct {
	nn.Layer
	t       *testing.T
	out     *tensor.Tensor
	snap    []float32
	checked bool
}

func (w *watched) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	w.out = w.Layer.Forward(x, train)
	w.snap = append(w.snap[:0], w.out.Data...)
	return w.out
}

func (w *watched) check() {
	w.checked = true
	for i, v := range w.out.Data {
		if math.Float32bits(v) != math.Float32bits(w.snap[i]) {
			w.t.Errorf("%s: forward result element %d was %v after Forward and is %v as Backward starts", w.Name(), i, w.snap[i], v)
			return
		}
	}
}

func (w *watched) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	w.check()
	return w.Layer.Backward(gradOut)
}

func (w *watched) BackwardWithGradHook(gradOut *tensor.Tensor, hook nn.ParamHook) *tensor.Tensor {
	w.check()
	return nn.BackwardNotify(w.Layer, gradOut, hook)
}

// watch wraps l and, through the containers' exported fields, every layer
// under it.
func watch(t *testing.T, l nn.Layer, all *[]*watched) nn.Layer {
	switch c := l.(type) {
	case *nn.Sequential:
		for i := range c.Layers {
			c.Layers[i] = watch(t, c.Layers[i], all)
		}
	case *models.Residual:
		c.Body = watch(t, c.Body, all)
		if c.Shortcut != nil {
			c.Shortcut = watch(t, c.Shortcut, all)
		}
	case *models.Branches:
		for i := range c.Paths {
			c.Paths[i] = watch(t, c.Paths[i], all)
		}
	}
	w := &watched{Layer: l, t: t}
	*all = append(*all, w)
	return w
}

// TestForwardResultsSurviveUntilBackward: nobody but its layer writes a
// Forward result before that layer's Backward (nn.Layer, "Activation
// lifetime") — the rule ReLU and Residual lean on when they gate the gradient
// on their own output instead of a mask kept beside it. Every layer and
// container of the models the benchmarks train is held to it over two steps,
// the second on reused tensors.
func TestForwardResultsSurviveUntilBackward(t *testing.T) {
	const classes, size, batch = 8, 16, 4
	for name, net := range map[string]nn.Layer{
		"TinyResNet":        models.NewTinyResNet(classes, 1, tensor.NewRNG(3)),
		"TinyInception":     models.NewTinyInception(classes, tensor.NewRNG(4)),
		"OverlapBenchModel": core.OverlapBenchModel(classes, size, 5),
		"SmallBNFreeCNN":    core.SmallBNFreeCNN(classes, size, 6),
	} {
		var all []*watched
		net = watch(t, net, &all)
		rng := tensor.NewRNG(9)
		x := tensor.New(batch, 3, size, size)
		crit := nn.NewSoftmaxCrossEntropy()
		for step := 0; step < 2; step++ {
			rng.FillNormal(x, 0, 1)
			if _, err := crit.Forward(net.Forward(x, true), []int{0, 1, 2, 3}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			nn.BackwardNotify(net, crit.Backward(), func(*nn.Param) {})
		}
		for _, w := range all {
			if !w.checked {
				t.Errorf("%s: %s never ran backward", name, w.Name())
			}
		}
	}
}
