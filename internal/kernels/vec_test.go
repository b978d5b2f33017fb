package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// TestMomentumStepMatchesScaleThenStep holds MomentumStep — whichever body
// this build runs — to the two passes it replaced: normalize the gradient
// (skipped when scale is 1, as the trainer did), then the optimizer's scalar
// loop. Same bits in w and v for every length and coefficient corner.
func TestMomentumStepMatchesScaleThenStep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 8, 9, 31, 64, 1000} {
		for _, c := range [][4]float32{{0.25, 1e-4, 0.9, 0.1}, {1, 0, 0.9, 0.005}, {0.125, 1e-4, 0, 1}} {
			scale, wd, m, lr := c[0], c[1], c[2], c[3]
			w, v, g := make([]float32, n), make([]float32, n), make([]float32, n)
			for i := range w {
				w[i], v[i], g[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())
			}
			wantW, wantV := append([]float32(nil), w...), append([]float32(nil), v...)
			scaled := append([]float32(nil), g...)
			if scale != 1 {
				for i := range scaled {
					scaled[i] *= scale
				}
			}
			for j := range wantW {
				grad := scaled[j] + float32(wd*wantW[j])
				wantV[j] = float32(m*wantV[j]) + grad
				wantW[j] -= float32(lr * wantV[j])
			}
			MomentumStep(w, v, g, scale, wd, m, lr)
			for i := range w {
				if math.Float32bits(w[i]) != math.Float32bits(wantW[i]) || math.Float32bits(v[i]) != math.Float32bits(wantV[i]) {
					t.Fatalf("n%d coefs%v elem %d: w %v v %v, two-pass reference w %v v %v", n, c, i, w[i], v[i], wantW[i], wantV[i])
				}
			}
		}
	}
}

func TestAddIntoAddsElementwise(t *testing.T) {
	for _, n := range []int{0, 1, 8, 37, 300} {
		dst, src := make([]float32, n), make([]float32, n)
		for i := range dst {
			dst[i], src[i] = float32(i)*0.5, float32(n-i)*0.25
		}
		AddInto(dst, src)
		for i := range dst {
			if want := float32(i)*0.5 + float32(n-i)*0.25; dst[i] != want {
				t.Fatalf("n%d: dst[%d] = %v, want %v", n, i, dst[i], want)
			}
		}
	}
}

// TestActivationKernelsValues pins what the activation kernels and the 2×2
// pool store — whichever body this build runs — on the values a comparison
// can get wrong: NaN and -0 rectify to +0 bits, a gate is open only over a
// positive output, the first of tied maxima wins the pool and NaN never does.
// The rows are long enough to run the vector blocks and a tail.
func TestActivationKernelsValues(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	den := math.Float32frombits(1)
	src := []float32{nan, negZero, 0, -1, den, 1, inf, -inf, -den, 2, -3, 4, nan, 5, negZero, 6, -7, 8, 9}
	want := []float32{0, 0, 0, 0, den, 1, inf, 0, 0, 2, 0, 4, 0, 5, 0, 6, 0, 8, 9}
	bits := func(name string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v (%08x), want %v (%08x)", name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	n := len(src)
	dst := make([]float32, n)
	for i := range dst {
		dst[i] = -9 // every element must be stored
	}
	RectifyInto(dst, src)
	bits("RectifyInto", dst, want)

	// Adding +0 keeps a's value (and turns -0 into +0, which rectifies alike).
	AddRectifyInto(dst, src, make([]float32, n))
	bits("AddRectifyInto(a, 0)", dst, want)
	half := make([]float32, n)
	for i := range half {
		half[i] = -1.5
	}
	AddRectifyInto(dst, src, half)
	bits("AddRectifyInto(a, -1.5)", dst, []float32{0, 0, 0, 0, 0, 0, inf, 0, 0, 0.5, 0, 2.5, 0, 3.5, 0, 4.5, 0, 6.5, 7.5})

	// Gated on the rectified output: open exactly where src was positive, and
	// what passes keeps its bits (a NaN or -0 gradient included).
	grad := make([]float32, n)
	for i := range grad {
		grad[i] = float32(i) - 3
	}
	grad[4], grad[5] = nan, negZero
	wantGate := make([]float32, n)
	for i := range wantGate {
		if want[i] > 0 {
			wantGate[i] = grad[i]
		}
	}
	GateInto(dst, grad, want)
	bits("GateInto", dst, wantGate)
	GateInto(dst, grad, src) // any y: NaN, -0 and negatives keep the gate shut
	bits("GateInto(raw y)", dst, wantGate)

	// Eleven windows, w = 23 (odd: the last input column is never read).
	row0 := []float32{1, 1, 1, 2, nan, nan, 0, negZero, negZero, 0, -inf, -inf, 3, 1, 1, 3, nan, 7, 5, 5, inf, nan, 99}
	row1 := []float32{1, 1, 2, 2, nan, nan, negZero, 0, 0, negZero, -inf, nan, 1, 3, 3, 1, 7, 7, 5, 6, inf, inf, 99}
	out, arg := make([]float32, 11), make([]int32, 11)
	MaxPool2x2(out, arg, row0, row1, 100, 23)
	bits("MaxPool2x2 out", out, []float32{1, 2, -inf, 0, negZero, -inf, 3, 3, 7, 6, inf})
	for i, want := range []int32{100, 103, -1, 106, 108, -1, 112, 115, 117, 100 + 23 + 19, 120} {
		if arg[i] != want {
			t.Fatalf("MaxPool2x2 argmax[%d] = %d, want %d", i, arg[i], want)
		}
	}
}

func TestVecKernelsRejectLengthMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddInto":        func() { AddInto(make([]float32, 4), make([]float32, 5)) },
		"MomentumStep":   func() { MomentumStep(make([]float32, 4), make([]float32, 4), make([]float32, 3), 1, 0, 0, 0) },
		"RectifyInto":    func() { RectifyInto(make([]float32, 4), make([]float32, 5)) },
		"AddRectifyInto": func() { AddRectifyInto(make([]float32, 4), make([]float32, 4), make([]float32, 3)) },
		"GateInto":       func() { GateInto(make([]float32, 4), make([]float32, 3), make([]float32, 4)) },
		"MaxPool2x2 row": func() { MaxPool2x2(make([]float32, 4), make([]int32, 4), make([]float32, 8), make([]float32, 7), 0, 8) },
		"MaxPool2x2 arg": func() { MaxPool2x2(make([]float32, 4), make([]int32, 3), make([]float32, 8), make([]float32, 8), 0, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted operands of different lengths", name)
				}
			}()
			fn()
		}()
	}
}
