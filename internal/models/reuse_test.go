package models

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The activation-lifetime rule (nn.Layer): every layer and container keeps
// the tensors it returns and reuses them while the shape repeats. These
// tests hold its two halves — a warmed step allocates no activation, and a
// reused tensor carries nothing over from the step before.

// TestWarmStepAllocatesNoActivations: forward+backward of a warmed
// TinyResNet allocates a small constant number of small objects and not one
// activation-sized buffer. Width 1 keeps the pool's fork-join bookkeeping out
// of the count.
func TestWarmStepAllocatesNoActivations(t *testing.T) {
	prev := kernels.SetWorkers(1)
	defer kernels.SetWorkers(prev)
	rng := tensor.NewRNG(5)
	net := NewTinyResNet(8, 1, rng)
	x := tensor.New(4, 3, 16, 16)
	rng.FillNormal(x, 0, 1)
	crit := nn.NewSoftmaxCrossEntropy()
	labels := []int{0, 1, 2, 3}
	step := func() {
		if _, err := crit.Forward(net.Forward(x, true), labels); err != nil {
			t.Fatal(err)
		}
		net.Backward(crit.Backward())
	}
	step()
	step() // warm: every result tensor and scratch buffer exists

	const runs = 20
	allocs := testing.AllocsPerRun(runs, step)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / runs
	// 0 today: every layer builds its pool tasks once.
	if allocs > 8 {
		t.Fatalf("warmed step allocates %v objects, want a small constant (<= 8)", allocs)
	}
	// The smallest conv activation of this net is 4×64×4×4 floats = 16 KiB;
	// the whole step must allocate less than a quarter of one.
	if perStep > 4<<10 {
		t.Fatalf("warmed step allocates %d bytes: some layer still allocates its result", perStep)
	}
}

// TestResidualStoresItsZeros: all-positive then all-negative through one
// identity-shortcut block, forward and backward. The second results are
// reused tensors and must be zeros the block stored.
func TestResidualStoresItsZeros(t *testing.T) {
	blk := NewResidual("r", nn.NewAvgPool2D("id", 1, 1, 1, 1, 0, 0), nil) // y = ReLU(x + x)
	pos, neg := tensor.Full(1, 2, 3, 4, 4), tensor.Full(-1, 2, 3, 4, 4)
	g := tensor.Full(5, 2, 3, 4, 4)
	out := blk.Forward(pos, true)
	gradIn := blk.Backward(g)
	if out.Data[7] != 2 || gradIn.Data[7] != 10 {
		t.Fatalf("positive input: out %v gradIn %v, want 2 and 10", out.Data[7], gradIn.Data[7])
	}
	out2 := blk.Forward(neg, true)
	gradIn2 := blk.Backward(g)
	if out2 != out {
		t.Fatal("a repeated shape did not reuse the block's output")
	}
	for i := range out2.Data {
		if math.Float32bits(out2.Data[i]) != 0 || math.Float32bits(gradIn2.Data[i]) != 0 {
			t.Fatalf("negative input after a positive one: out[%d] = %v, gradIn[%d] = %v, want +0", i, out2.Data[i], i, gradIn2.Data[i])
		}
	}
}

// gradcheckSecondStep runs one full step on one batch and then checks the
// next step's analytic gradients — input and every parameter — against
// central differences. Everything the second step returns lives in storage
// the first step already wrote. Each tensor is checked along a random ±1
// direction rather than element by element: these blocks are full of ReLU
// and max-pool kinks, and a whole-tensor directional derivative averages
// over the few units an ε step pushes across one where a single-element
// difference quotient lands on it (it does, at the parent commit too).
func gradcheckSecondStep(t *testing.T, layer nn.Layer, shape []int, seed int64) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	first, x := tensor.New(shape...), tensor.New(shape...)
	rng.FillUniform(first, -1, 1)
	rng.FillUniform(x, -1, 1)
	readout := func(i int) float64 { return math.Sin(float64(i)*0.7+0.3) + 0.2 }
	loss := func() float64 {
		var l float64
		for i, v := range layer.Forward(x, true).Data {
			l += float64(v) * readout(i)
		}
		return l
	}

	y := layer.Forward(first, true)
	g := tensor.New(y.Shape()...)
	rng.FillNormal(g, 0, 1)
	layer.Backward(g)

	nn.ZeroGrads(layer.Params())
	layer.Forward(x, true)
	for i := range g.Data {
		g.Data[i] = float32(readout(i))
	}
	analyticIn := append([]float32(nil), layer.Backward(g).Data...)

	const tol = 2e-2
	check := func(name string, buf, analytic []float32) {
		dir := make([]float32, len(buf))
		var want, norm float64
		for i := range dir {
			dir[i] = float32(1 - 2*rng.Intn(2))
			want += float64(analytic[i]) * float64(dir[i])
			norm += float64(analytic[i]) * float64(analytic[i])
		}
		orig := append([]float32(nil), buf...)
		shift := func(by float32) float64 {
			for i := range buf {
				buf[i] = orig[i] + by*dir[i]
			}
			return loss()
		}
		// Several step sizes, the closest quotient counts: a kink inside a
		// wide interval spoils only the wide ones, float32 rounding of the
		// loss only the narrow ones. The error is measured against the gradient's
		// norm — what a ±1 direction's derivative comes to when it does not
		// happen to cancel (batch norm makes the input's nearly do so).
		miss := math.Inf(1)
		for _, eps := range []float32{3e-3, 1e-3, 3e-4, 1e-4} {
			numeric := (shift(eps) - shift(-eps)) / float64(2*eps)
			miss = math.Min(miss, math.Abs(numeric-want))
		}
		copy(buf, orig)
		if miss > tol*math.Max(1, math.Sqrt(norm)) {
			t.Fatalf("%s %s: analytic directional derivative %v (gradient norm %v) is %v off the difference quotient", layer.Name(), name, want, math.Sqrt(norm), miss)
		}
	}
	check("input", x.Data, analyticIn)
	for _, p := range layer.Params() {
		check(p.Name, p.Value.Data, append([]float32(nil), p.Grad.Data...))
	}
}

func TestReusedContainersPassGradcheck(t *testing.T) {
	rng := tensor.NewRNG(12)
	// An identity-shortcut residual block (stride 1, same width).
	gradcheckSecondStep(t, basicBlock("res", 4, 4, 1, rng), []int{2, 4, 5, 5}, 31)
	// GoogLeNet's inception modules, the two kinds: four projected branches,
	// and a stride-2 reduction whose pool branch is concatenated unprojected
	// (with the average pool: a 3×3 max over every input is too kinked for a
	// difference quotient, and nn's TestLayersReuseResults holds MaxPool2D's
	// reuse bit for bit).
	full, _ := inception("inc", 4, inceptionSpec{out1: 3, red3: 2, out3: 3, redD: 2, outD: 3, pool: 2, stride: 1, avgPool: true}, rng)
	gradcheckSecondStep(t, full, []int{2, 4, 5, 5}, 32)
	reduce, _ := inception("red", 4, inceptionSpec{red3: 2, out3: 3, redD: 2, outD: 3, stride: 2, avgPool: true}, rng)
	gradcheckSecondStep(t, reduce, []int{2, 4, 6, 6}, 33)
}
