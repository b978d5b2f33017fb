package dpt

import (
	"sync"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func reactiveFixture(t *testing.T, devices int) (*Engine, *tensor.Tensor, []int) {
	t.Helper()
	replicas := make([]nn.Layer, devices)
	for i := range replicas {
		replicas[i] = models.NewSmallCNN(4, 8, tensor.NewRNG(int64(i)+1))
	}
	e, err := New(replicas, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	rng := tensor.NewRNG(9)
	x := tensor.New(8, 3, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 4
	}
	return e, x, labels
}

// TestStepWithGradHookFiresPerDevicePerParam: the hook must fire exactly
// devices×params times, covering every (device, param) pair, and the step's
// loss and resulting gradients must match the barrier Step.
func TestStepWithGradHookFiresPerDevicePerParam(t *testing.T) {
	const devices = 3
	e, x, labels := reactiveFixture(t, devices)
	var mu sync.Mutex
	fired := make(map[[2]int]int)
	loss, err := e.StepWithGradHook(x, labels, func(dev, param int) {
		mu.Lock()
		fired[[2]int{dev, param}]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	np := e.NumParams()
	if len(fired) != devices*np {
		t.Fatalf("hook covered %d pairs, want %d", len(fired), devices*np)
	}
	for pair, c := range fired {
		if c != 1 {
			t.Fatalf("pair %v fired %d times", pair, c)
		}
	}

	// Same engine state as a barrier Step on a fresh identical engine.
	e2, x2, labels2 := reactiveFixture(t, devices)
	loss2, err := e2.Step(x2, labels2)
	if err != nil {
		t.Fatal(err)
	}
	if loss != loss2 {
		t.Fatalf("hooked loss %v, barrier loss %v", loss, loss2)
	}
	a := make([]float32, e.GradSize())
	b := make([]float32, e2.GradSize())
	if err := e.SumGrads(a); err != nil {
		t.Fatal(err)
	}
	if err := e2.SumGrads(b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("summed grad[%d]: hooked %v, barrier %v", i, a[i], b[i])
		}
	}
}

// TestReduceRangeMatchesSumGrads: reducing the flattened gradient bucket by
// bucket (any bucket size, including ones that split parameters) must be
// bitwise identical to the full-vector SumGrads.
func TestReduceRangeMatchesSumGrads(t *testing.T) {
	e, x, labels := reactiveFixture(t, 3)
	if _, err := e.Step(x, labels); err != nil {
		t.Fatal(err)
	}
	want := make([]float32, e.GradSize())
	if err := e.SumGrads(want); err != nil {
		t.Fatal(err)
	}
	for _, bf := range []int{1, 7, 64, 1000, e.GradSize()} {
		got := make([]float32, e.GradSize())
		for lo := 0; lo < e.GradSize(); lo += bf {
			hi := lo + bf
			if hi > e.GradSize() {
				hi = e.GradSize()
			}
			if err := e.ReduceRangeInto(got[lo:hi], lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bucket %d floats: grad[%d] = %v, SumGrads %v", bf, i, got[i], want[i])
			}
		}
	}
	// Out-of-range and size-mismatch requests error.
	if err := e.ReduceRangeInto(make([]float32, 4), e.GradSize()-2, e.GradSize()+2); err == nil {
		t.Fatal("out-of-range reduce should error")
	}
	if err := e.ReduceRangeInto(make([]float32, 3), 0, 4); err == nil {
		t.Fatal("size mismatch should error")
	}
}

// TestScatterRangeMatchesSetGrads: scattering bucket by bucket must leave
// every device's accumulators identical to a full SetGrads.
func TestScatterRangeMatchesSetGrads(t *testing.T) {
	e, _, _ := reactiveFixture(t, 2)
	flat := make([]float32, e.GradSize())
	for i := range flat {
		flat[i] = float32(i%17) - 8
	}
	if err := e.SetGrads(flat); err != nil {
		t.Fatal(err)
	}
	want := make([][]float32, e.NumDevices())
	for d := range want {
		want[d] = make([]float32, e.GradSize())
		if err := nn.FlattenGrads(e.Params(d), want[d]); err != nil {
			t.Fatal(err)
		}
	}
	// Perturb, then scatter in odd-sized buckets.
	if err := e.SetGrads(make([]float32, e.GradSize())); err != nil {
		t.Fatal(err)
	}
	const bf = 37
	for lo := 0; lo < e.GradSize(); lo += bf {
		hi := lo + bf
		if hi > e.GradSize() {
			hi = e.GradSize()
		}
		if err := e.ScatterRange(lo, hi, flat[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]float32, e.GradSize())
	for d := 0; d < e.NumDevices(); d++ {
		if err := nn.FlattenGrads(e.Params(d), got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[d][i] {
				t.Fatalf("device %d grad[%d]: scattered %v, SetGrads %v", d, i, got[i], want[d][i])
			}
		}
	}
	if err := e.ScatterRange(-1, 3, make([]float32, 4)); err == nil {
		t.Fatal("negative range should error")
	}
}

// TestParamRangeCoversGradient: ranges tile [0, GradSize) in order.
func TestParamRangeCoversGradient(t *testing.T) {
	e, _, _ := reactiveFixture(t, 1)
	off := 0
	for i := 0; i < e.NumParams(); i++ {
		lo, hi := e.ParamRange(i)
		if lo != off || hi <= lo {
			t.Fatalf("param %d range [%d,%d), expected start %d", i, lo, hi, off)
		}
		off = hi
	}
	if off != e.GradSize() {
		t.Fatalf("ranges tile to %d, GradSize %d", off, e.GradSize())
	}
}

// TestStepWithGradHookRequiresOptimized: the hooked step is the optimized
// table's, and that is the only table there is — New refuses to build the
// Figure 3 baseline, whose serialized backward could not stream readiness.
func TestStepWithGradHookRequiresOptimized(t *testing.T) {
	replicas := []nn.Layer{models.NewSmallCNN(4, 8, tensor.NewRNG(1))}
	if e, err := New(replicas, false); err == nil {
		e.Close()
		t.Fatal("New should refuse the baseline engine")
	}
}
