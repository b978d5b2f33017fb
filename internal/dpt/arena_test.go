package dpt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// TestParamsAreWindowsOfTheArenas: after New, every parameter's Value and
// Grad storage is exactly its ParamRange window of the device's arenas,
// capacity-limited, so a flattened offset names the same element everywhere
// and clearing the parameters' gradients clears exactly the arena.
func TestParamsAreWindowsOfTheArenas(t *testing.T) {
	e, _, _ := reactiveFixture(t, 2)
	for d := 0; d < e.NumDevices(); d++ {
		values, grads := e.Values(d), e.Grads(d)
		if len(values) != e.GradSize() || len(grads) != e.GradSize() {
			t.Fatalf("device %d arenas %d/%d, GradSize %d", d, len(values), len(grads), e.GradSize())
		}
		for i, p := range e.Params(d) {
			lo, hi := e.ParamRange(i)
			for _, w := range []struct {
				name        string
				data, arena []float32
			}{{"Value", p.Value.Data, values}, {"Grad", p.Grad.Data, grads}} {
				if &w.data[0] != &w.arena[lo] || len(w.data) != hi-lo || cap(w.data) != hi-lo {
					t.Fatalf("device %d param %d (%s) %s: len %d cap %d, not the arena window [%d,%d)",
						d, i, p.Name, w.name, len(w.data), cap(w.data), lo, hi)
				}
			}
		}
		for i := range grads {
			grads[i] = 1
		}
		nn.ZeroGrads(e.Params(d))
		for i, g := range grads {
			if g != 0 {
				t.Fatalf("device %d: ZeroGrads left arena[%d] = %v", d, i, g)
			}
		}
	}
}

// TestStepClearsStaleGradients: whatever the previous step's pack, exchange
// and apply left in the arenas, a step's gradients are as if they had started
// from zero — backward stores them, nothing clears the arena first.
func TestStepClearsStaleGradients(t *testing.T) {
	e, x, labels := reactiveFixture(t, 2)
	fresh, _, _ := reactiveFixture(t, 2)
	for d := 0; d < e.NumDevices(); d++ {
		for i := range e.Grads(d) {
			e.Grads(d)[i] = float32(math.NaN())
		}
	}
	if _, err := e.Step(x, labels); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Step(x, labels); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < e.NumDevices(); d++ {
		for i, g := range e.Grads(d) {
			if math.Float32bits(g) != math.Float32bits(fresh.Grads(d)[i]) {
				t.Fatalf("device %d grad[%d] = %v after a poisoned arena, %v from a fresh engine", d, i, g, fresh.Grads(d)[i])
			}
		}
	}
}

// TestFailedStepStoresZeros: a device whose criterion fails runs no
// backward, so nothing stores its gradient; the engine stores the zeros
// itself, over whatever the arena held. The step fails per device: the
// other devices still run their backward. (The other path without
// a backward, an empty row shard, cannot be reached through Step, which
// refuses a batch smaller than the device count.)
func TestFailedStepStoresZeros(t *testing.T) {
	e, err := New(buildReplicas(2, 1), true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	x, labels := makeBatch(8, 13)
	labels[6] = 99 // on the second device: the first has already passed the criterion
	for d := 0; d < e.NumDevices(); d++ {
		for i := range e.Grads(d) {
			e.Grads(d)[i] = float32(math.NaN())
		}
	}
	if _, err := e.Step(x, labels); err == nil {
		t.Fatal("a label outside the classes must fail the step")
	}
	for i, g := range e.Grads(1) {
		if math.Float32bits(g) != 0 {
			t.Fatalf("device 1 grad[%d] = %v after a failed step, want +0", i, g)
		}
	}
}

// TestNewSkipsReplicaInputGrad: the engine drops what Backward returns, and
// says so to the replicas — a replica's backward stops at its first layer's
// parameter gradients.
func TestNewSkipsReplicaInputGrad(t *testing.T) {
	replicas := buildReplicas(1, 1)
	x, _ := makeBatch(4, 13)
	out := replicas[0].Forward(x, true)
	if replicas[0].Backward(out) == nil {
		t.Fatal("a replica outside an engine returns its input gradient")
	}
	e, err := New(replicas, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	out = replicas[0].Forward(x, true)
	if replicas[0].Backward(out) != nil {
		t.Fatal("a replica under an engine still computes its input gradient")
	}
}

// TestReduceRangeInPlaceMatchesReference: over random ranges, for 1, 2 and 3
// devices, ReduceRangeInto gives the bits of the flatten-then-add-in-device-
// order sum both into a foreign buffer and into the very window of device
// 0's arena the training step hands it.
func TestReduceRangeInPlaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for devices := 1; devices <= 3; devices++ {
		e, x, labels := reactiveFixture(t, devices)
		if _, err := e.Step(x, labels); err != nil {
			t.Fatal(err)
		}
		n := e.GradSize()
		want := make([]float32, n)
		tmp := make([]float32, n)
		for d := 0; d < devices; d++ {
			if err := nn.FlattenGrads(e.Params(d), tmp); err != nil {
				t.Fatal(err)
			}
			for i, v := range tmp {
				if d == 0 {
					want[i] = v
				} else {
					want[i] += v
				}
			}
		}
		// Random cuts tile [0, n): each range is reduced into a foreign
		// buffer first (which leaves the arenas alone), then in place.
		for lo := 0; lo < n; {
			hi := min(lo+1+rng.Intn(n/3), n)
			foreign := make([]float32, hi-lo)
			if err := e.ReduceRangeInto(foreign, lo, hi); err != nil {
				t.Fatal(err)
			}
			if err := e.ReduceRangeInto(e.Grads(0)[lo:hi], lo, hi); err != nil {
				t.Fatal(err)
			}
			for i := lo; i < hi; i++ {
				if math.Float32bits(foreign[i-lo]) != math.Float32bits(want[i]) || math.Float32bits(e.Grads(0)[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%d devices, range [%d,%d): grad[%d] foreign %v, in place %v, reference %v",
						devices, lo, hi, i, foreign[i-lo], e.Grads(0)[i], want[i])
				}
			}
			lo = hi
		}
	}
}
