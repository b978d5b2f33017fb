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

func TestVecKernelsRejectLengthMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddInto":      func() { AddInto(make([]float32, 4), make([]float32, 5)) },
		"MomentumStep": func() { MomentumStep(make([]float32, 4), make([]float32, 4), make([]float32, 3), 1, 0, 0, 0) },
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
