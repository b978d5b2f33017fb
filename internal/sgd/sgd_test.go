package sgd

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func onParam(vals, grads []float32, noDecay bool) *nn.Param {
	v, _ := tensor.FromSlice(vals, len(vals))
	g, _ := tensor.FromSlice(grads, len(grads))
	return &nn.Param{Name: "p", Value: v, Grad: g, NoWeightDecay: noDecay}
}

func TestPlainSGDStep(t *testing.T) {
	p := onParam([]float32{1, 2}, []float32{0.5, -0.5}, true)
	o := New([]*nn.Param{p}, Config{Momentum: 0, WeightDecay: 0})
	o.Step(0.1)
	if math.Abs(float64(p.Value.Data[0]-0.95)) > 1e-6 || math.Abs(float64(p.Value.Data[1]-2.05)) > 1e-6 {
		t.Fatalf("after step: %v", p.Value.Data)
	}
}

func TestMomentumAccumulates(t *testing.T) {
	p := onParam([]float32{0}, []float32{1}, true)
	o := New([]*nn.Param{p}, Config{Momentum: 0.9, WeightDecay: 0})
	// v1 = 1, w = -0.1; v2 = 0.9+1 = 1.9, w = -0.1 - 0.19 = -0.29
	o.Step(0.1)
	o.Step(0.1)
	if math.Abs(float64(p.Value.Data[0]+0.29)) > 1e-6 {
		t.Fatalf("after two steps: %v, want -0.29", p.Value.Data[0])
	}
}

func TestWeightDecayAppliedUnlessFlagged(t *testing.T) {
	decayed := onParam([]float32{10}, []float32{0}, false)
	exempt := onParam([]float32{10}, []float32{0}, true)
	o := New([]*nn.Param{decayed, exempt}, Config{Momentum: 0, WeightDecay: 0.1})
	o.Step(1)
	// decayed: g = 0 + 0.1*10 = 1; w = 10 - 1 = 9.
	if math.Abs(float64(decayed.Value.Data[0]-9)) > 1e-6 {
		t.Fatalf("decayed param %v, want 9", decayed.Value.Data[0])
	}
	if exempt.Value.Data[0] != 10 {
		t.Fatalf("exempt param %v, want 10 (unchanged)", exempt.Value.Data[0])
	}
}

func TestSGDReducesQuadraticLoss(t *testing.T) {
	// Minimize f(w) = ||w - target||² with momentum SGD.
	target := []float32{3, -2, 1}
	p := onParam([]float32{0, 0, 0}, []float32{0, 0, 0}, true)
	o := New([]*nn.Param{p}, DefaultConfig())
	for i := 0; i < 200; i++ {
		for j := range target {
			p.Grad.Data[j] = 2 * (p.Value.Data[j] - target[j])
		}
		o.Step(0.05)
	}
	for j := range target {
		if math.Abs(float64(p.Value.Data[j]-target[j])) > 1e-2 {
			t.Fatalf("w[%d] = %v, want %v", j, p.Value.Data[j], target[j])
		}
	}
}

func TestWarmupStepSchedule(t *testing.T) {
	s := WarmupStep{Base: 0.1, Peak: 3.2, WarmupEpochs: 5, DropEvery: 30, DropFactor: 0.1}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.LR(0); got != 0.1 {
		t.Fatalf("LR(0) = %v, want 0.1", got)
	}
	if got := s.LR(2.5); math.Abs(got-(0.1+3.1/2)) > 1e-9 {
		t.Fatalf("LR(2.5) = %v, want midpoint", got)
	}
	if got := s.LR(5); got != 3.2 {
		t.Fatalf("LR(5) = %v, want peak 3.2", got)
	}
	if got := s.LR(29.99); got != 3.2 {
		t.Fatalf("LR(29.99) = %v, want 3.2", got)
	}
	if got := s.LR(30); math.Abs(got-0.32) > 1e-9 {
		t.Fatalf("LR(30) = %v, want 0.32", got)
	}
	if got := s.LR(65); math.Abs(got-0.032) > 1e-9 {
		t.Fatalf("LR(65) = %v, want 0.032", got)
	}
	if got := s.LR(-1); got != 0.1 {
		t.Fatalf("LR(-1) = %v, want clamp to base", got)
	}
}

func TestGoyalScheduleMatchesPaper(t *testing.T) {
	// Paper Table 2 configuration: batch 32/GPU × 256 GPUs = 8k global.
	s := Goyal(32, 256)
	if math.Abs(s.Peak-3.2) > 1e-9 {
		t.Fatalf("peak = %v, want 3.2 (0.1·8192/256)", s.Peak)
	}
	// Section 5 default: batch 64/GPU.
	s64 := Goyal(64, 128)
	if math.Abs(s64.Peak-3.2) > 1e-9 {
		t.Fatalf("peak = %v, want 3.2", s64.Peak)
	}
}

func TestConstSchedule(t *testing.T) {
	if Const(0.01).LR(57) != 0.01 {
		t.Fatal("const schedule should ignore epoch")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	if err := (WarmupStep{Base: 0, Peak: 1, DropFactor: 0.1}).Validate(); err == nil {
		t.Fatal("zero base should fail")
	}
	if err := (WarmupStep{Base: 0.1, Peak: 1, DropFactor: 1.5}).Validate(); err == nil {
		t.Fatal("drop factor > 1 should fail")
	}
}

func TestTwoReplicasStayInSyncUnderIdenticalUpdates(t *testing.T) {
	// The Algorithm 1 invariant the trainer relies on: identical initial
	// weights + identical gradient streams => identical weights forever.
	a := onParam([]float32{1, 2, 3}, []float32{0, 0, 0}, false)
	b := onParam([]float32{1, 2, 3}, []float32{0, 0, 0}, false)
	oa := New([]*nn.Param{a}, DefaultConfig())
	ob := New([]*nn.Param{b}, DefaultConfig())
	rng := tensor.NewRNG(3)
	for i := 0; i < 50; i++ {
		for j := 0; j < 3; j++ {
			g := rng.Float32() - 0.5
			a.Grad.Data[j] = g
			b.Grad.Data[j] = g
		}
		lr := float32(0.01 + 0.001*float64(i%7))
		oa.Step(lr)
		ob.Step(lr)
	}
	for j := 0; j < 3; j++ {
		if a.Value.Data[j] != b.Value.Data[j] {
			t.Fatalf("replicas diverged at %d: %v vs %v", j, a.Value.Data[j], b.Value.Data[j])
		}
	}
}

// TestStepRangeMatchesStep: updating the flattened model range by range, in
// any order and with cuts anywhere — inside a parameter, across a
// NoWeightDecay boundary — must be bitwise identical to a full Step: the
// invariant the per-bucket updates and the colour roots' per-segment updates
// rely on.
func TestStepRangeMatchesStep(t *testing.T) {
	build := func() []*nn.Param {
		return []*nn.Param{
			onParam([]float32{1, -2, 3}, []float32{0.5, 0.25, -0.125}, false),
			onParam([]float32{0.5}, []float32{-1}, true),
			onParam([]float32{-4, 4}, []float32{2, -2}, false),
		}
	}
	full := build()
	piecewise := build()
	of := New(full, DefaultConfig())
	op := New(piecewise, DefaultConfig())
	var g []float32
	for _, p := range piecewise {
		g = append(g, p.Grad.Data...)
	}
	cuts := []int{0, 2, 4, 6} // inside param 0, then across params 1 and 2
	for step := 0; step < 3; step++ {
		of.Step(0.1)
		// Reverse order, as buckets land back-to-front during backward.
		for c := len(cuts) - 2; c >= 0; c-- {
			op.StepRange(cuts[c], cuts[c+1], 0.1, g[cuts[c]:cuts[c+1]], 1)
		}
	}
	for i := range full {
		for j := range full[i].Value.Data {
			if full[i].Value.Data[j] != piecewise[i].Value.Data[j] {
				t.Fatalf("param %d value[%d]: full %v, piecewise %v",
					i, j, full[i].Value.Data[j], piecewise[i].Value.Data[j])
			}
		}
	}
}
