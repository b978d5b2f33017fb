package dpt

import (
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildReplicas constructs m identical-architecture SmallCNNs. Weights are
// synchronized by New from replica 0.
func buildReplicas(m int, seed int64) []nn.Layer {
	reps := make([]nn.Layer, m)
	for i := range reps {
		reps[i] = models.NewSmallCNN(4, 8, tensor.NewRNG(seed+int64(i)*100))
	}
	return reps
}

func makeBatch(n int, seed int64) (*tensor.Tensor, []int) {
	rng := tensor.NewRNG(seed)
	x := tensor.New(n, 3, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	return x, labels
}

func TestNewRequiresDevices(t *testing.T) {
	if _, err := New(nil, true); err == nil {
		t.Fatal("zero devices should error")
	}
}

func TestReplicaWeightSync(t *testing.T) {
	reps := buildReplicas(3, 1)
	e, err := New(reps, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p0 := e.Params(0)
	for d := 1; d < 3; d++ {
		pd := e.Params(d)
		for i := range p0 {
			for j := range p0[i].Value.Data {
				if p0[i].Value.Data[j] != pd[i].Value.Data[j] {
					t.Fatalf("device %d param %d not synced", d, i)
				}
			}
		}
	}
}

// buildBNFreeReplicas constructs replicas without batch norm. BN computes
// statistics per device partition (exactly as per-GPU BN does on the real
// system), so the single-device equivalence below only holds for BN-free
// models.
func buildBNFreeReplicas(m int, seed int64) []nn.Layer {
	reps := make([]nn.Layer, m)
	for i := range reps {
		rng := tensor.NewRNG(seed + int64(i)*100)
		reps[i] = nn.NewSequential("bnfree",
			nn.NewConv2D("c1", 3, 6, 3, 3, 1, 1, 1, 1, nn.ConvOpts{Bias: true}, rng),
			nn.NewReLU("r1"),
			nn.NewMaxPool2D("p1", 2, 2, 2, 2, 0, 0),
			nn.NewFlatten("fl"),
			nn.NewLinear("fc", 6*4*4, 4, rng),
		)
	}
	return reps
}

// Multi-device must equal single-device: splitting the batch and summing
// per-device gradients reproduces the whole-batch gradient (the data-
// parallel identity). Loss normalization: criterion averages within each
// partition, so the summed gradient equals the whole-batch gradient times
// the device count (each partition's mean has a 1/(n/m) factor); we compare
// after rescaling.
func TestMultiDeviceMatchesSingleDevice(t *testing.T) {
	x, labels := makeBatch(8, 9)

	e1, err := New(buildBNFreeReplicas(1, 5), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Step(x, labels); err != nil {
		t.Fatal(err)
	}
	g1 := make([]float32, e1.GradSize())
	e1.SumGrads(g1)
	e1.Close()

	e4, err := New(buildBNFreeReplicas(4, 5), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e4.Step(x, labels); err != nil {
		t.Fatal(err)
	}
	g4 := make([]float32, e4.GradSize())
	e4.SumGrads(g4)
	e4.Close()

	// Each of the 4 partitions averaged over 2 samples; the whole batch
	// averaged over 8: sum of partition grads = 4 × whole-batch grad.
	for i := range g1 {
		if math.Abs(float64(g4[i]-4*g1[i])) > 1e-4*(1+math.Abs(float64(g4[i]))) {
			t.Fatalf("grad[%d]: 4-device sum %v, 4×single %v", i, g4[i], 4*g1[i])
		}
	}
}

func TestStepErrors(t *testing.T) {
	e, _ := New(buildReplicas(4, 1), true)
	defer e.Close()
	x, labels := makeBatch(8, 13)
	if _, err := e.Step(x, labels[:5]); err == nil {
		t.Fatal("label mismatch should error")
	}
	small, smallLabels := makeBatch(2, 13)
	if _, err := e.Step(small, smallLabels); err == nil {
		t.Fatal("batch smaller than device count should error")
	}
}

func TestUnevenPartition(t *testing.T) {
	// 7 samples over 4 devices: partitions 2,2,2,1.
	e, _ := New(buildReplicas(4, 2), true)
	defer e.Close()
	x, labels := makeBatch(7, 17)
	if _, err := e.Step(x, labels); err != nil {
		t.Fatal(err)
	}
	g := make([]float32, e.GradSize())
	if err := e.SumGrads(g); err != nil {
		t.Fatal(err)
	}
	var norm float64
	for _, v := range g {
		norm += float64(v) * float64(v)
	}
	if norm == 0 {
		t.Fatal("gradient is zero after step")
	}
}

func TestSetGradsBroadcasts(t *testing.T) {
	e, _ := New(buildReplicas(3, 4), true)
	defer e.Close()
	flat := make([]float32, e.GradSize())
	for i := range flat {
		flat[i] = float32(i%13) - 6
	}
	if err := e.SetGrads(flat); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		got := make([]float32, e.GradSize())
		if err := nn.FlattenGrads(e.Params(d), got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != flat[i] {
				t.Fatalf("device %d grad[%d] = %v, want %v", d, i, got[i], flat[i])
			}
		}
	}
}

func TestSumGradsSizeCheck(t *testing.T) {
	e, _ := New(buildReplicas(2, 5), true)
	defer e.Close()
	if err := e.SumGrads(make([]float32, 3)); err == nil {
		t.Fatal("wrong dst size should error")
	}
}

func TestPredictMatchesDirectForward(t *testing.T) {
	reps := buildReplicas(3, 6)
	e, _ := New(reps, true)
	defer e.Close()
	x, _ := makeBatch(7, 19)
	got, err := e.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: device 0's model over the whole batch in eval mode.
	ref := models.NewSmallCNN(4, 8, tensor.NewRNG(999))
	if err := nn.CopyValues(ref.Params(), e.Params(0)); err != nil {
		t.Fatal(err)
	}
	want := ref.Forward(x, false)
	if !got.ApproxEqual(want, 1e-4) {
		t.Fatal("Predict disagrees with direct forward")
	}
}

func TestClosedEngineErrors(t *testing.T) {
	e, _ := New(buildReplicas(2, 7), true)
	e.Close()
	e.Close() // double close is safe
	x, labels := makeBatch(4, 21)
	if _, err := e.Step(x, labels); err == nil {
		t.Fatal("step on closed engine should error")
	}
	if _, err := e.Predict(x); err == nil {
		t.Fatal("predict on closed engine should error")
	}
}

func TestStepsCounterAdvances(t *testing.T) {
	e, _ := New(buildReplicas(2, 8), true)
	defer e.Close()
	x, labels := makeBatch(4, 23)
	for i := 0; i < 3; i++ {
		if _, err := e.Step(x, labels); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Steps != 3 {
		t.Fatalf("steps = %d, want 3", s.Steps)
	}
	// Each row is staged once, on its own device.
	if want := int64(3 * 4 * x.Len()); s.BytesMoved != want {
		t.Fatalf("bytes moved = %d, want %d", s.BytesMoved, want)
	}
}

// TestEngineStepAllocatesNothing: each device keeps its step job, its rows
// and its staging tensor across steps (and the layers their results), so a
// warmed-up two-device step allocates nothing.
func TestEngineStepAllocatesNothing(t *testing.T) {
	e, err := New(buildReplicas(2, 4), true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	x, labels := makeBatch(4, 29)
	step := func() {
		if _, err := e.Step(x, labels); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Fatalf("Step allocates %v times a call", n)
	}
}
