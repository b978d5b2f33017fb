package models_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// trainedModels builds the models the benchmarks train, each from a fixed
// seed, so two calls give two identical networks.
func trainedModels(classes, size int) map[string]nn.Layer {
	return map[string]nn.Layer{
		"TinyResNet":        models.NewTinyResNet(classes, 1, tensor.NewRNG(3)),
		"TinyInception":     models.NewTinyInception(classes, tensor.NewRNG(4)),
		"OverlapBenchModel": core.OverlapBenchModel(classes, size, 5),
		"SmallBNFreeCNN":    core.SmallBNFreeCNN(classes, size, 6),
		"AllocBenchModel":   core.AllocBenchModel(classes, size, 7),
	}
}

func poison(ps []*nn.Param) {
	for _, p := range ps {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = float32(math.NaN())
		}
	}
}

func snapshotGrads(ps []*nn.Param) [][]float32 {
	out := make([][]float32, len(ps))
	for i, p := range ps {
		out[i] = append([]float32(nil), p.Grad.Data...)
	}
	return out
}

func requireGradBits(t *testing.T, what string, ps []*nn.Param, want [][]float32) {
	t.Helper()
	for i, p := range ps {
		for j, v := range p.Grad.Data {
			if math.Float32bits(v) != math.Float32bits(want[i][j]) {
				t.Fatalf("%s: %s[%d] = %v (bits %08x), want %v (bits %08x)", what, p.Name, j, v, math.Float32bits(v), want[i][j], math.Float32bits(want[i][j]))
			}
		}
	}
}

// TestModelsBackwardStores holds whole networks to the store contract
// (nn.Layer.Backward; the per-layer arithmetic is pinned against written-out
// accumulate references in internal/nn's store tests). Over gradients
// poisoned with NaN, a backward pass must leave what ZeroGrads followed by
// the same pass leaves — every parameter written, none read — and never a
// -0: a gradient accumulated onto +0 cannot be one, so a -0 is the signature
// of a store that skipped the +0. An upstream gradient of nothing but -0 (or
// +0) must therefore leave exact +0 in every parameter of every layer.
func TestModelsBackwardStores(t *testing.T) {
	const classes, size, batch = 8, 16, 4
	for name, net := range trainedModels(classes, size) {
		ps := net.Params()
		x := tensor.New(batch, 3, size, size)
		tensor.NewRNG(9).FillNormal(x, 0, 1)
		crit := nn.NewSoftmaxCrossEntropy()
		step := func() {
			if _, err := crit.Forward(net.Forward(x, true), []int{0, 1, 2, 3}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			net.Backward(crit.Backward())
		}
		nn.ZeroGrads(ps)
		step()
		want := snapshotGrads(ps)
		poison(ps)
		step()
		requireGradBits(t, name+", poisoned gradients", ps, want)
		for _, p := range ps {
			for j, v := range p.Grad.Data {
				if v == 0 && math.Signbit(float64(v)) {
					t.Fatalf("%s: %s[%d] is -0: stored without the +0 an accumulated gradient starts from", name, p.Name, j)
				}
			}
		}

		zeros := make([][]float32, len(ps))
		for i, p := range ps {
			zeros[i] = make([]float32, p.Grad.Len())
		}
		for _, upstream := range []float64{0, math.Copysign(0, -1)} {
			g := tensor.New(batch, classes)
			for i := range g.Data {
				g.Data[i] = float32(upstream)
			}
			net.Forward(x, true)
			poison(ps)
			net.Backward(g)
			requireGradBits(t, name+", all-zero upstream gradient", ps, zeros)
		}
	}
}

// TestModelsSkipInputGradKeepsParamGrads: telling a network that nobody reads
// its input gradient (what dpt.New does to every replica) changes no bit of
// any parameter gradient, and its Backward then returns nil.
func TestModelsSkipInputGradKeepsParamGrads(t *testing.T) {
	const classes, size, batch = 8, 16, 4
	plain, marked := trainedModels(classes, size), trainedModels(classes, size)
	for name, net := range plain {
		skip := marked[name]
		nn.SkipInputGrad(skip)
		x := tensor.New(batch, 3, size, size)
		tensor.NewRNG(9).FillNormal(x, 0, 1)
		var gradIn [2]*tensor.Tensor
		for i, m := range []nn.Layer{net, skip} {
			crit := nn.NewSoftmaxCrossEntropy()
			if _, err := crit.Forward(m.Forward(x, true), []int{0, 1, 2, 3}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			poison(m.Params())
			gradIn[i] = m.Backward(crit.Backward())
		}
		if gradIn[0] == nil || gradIn[1] != nil {
			t.Fatalf("%s: input gradient unmarked %v, marked %v — want one and none", name, gradIn[0] != nil, gradIn[1] != nil)
		}
		requireGradBits(t, name+", input gradient skipped", skip.Params(), snapshotGrads(net.Params()))
	}
}
