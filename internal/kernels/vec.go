package kernels

import "math"

// The two vector kernels of the training step's tail — the receive-reduce of
// every allreduce hop and the SGD update — which run at memory speed or not
// at all. Each has an AVX2 body (vec_amd64.s, chosen by UseAVX2) and the
// pure-Go loop below, which is the reference the AVX2 body is held to bit for
// bit and the only body other GOARCHes and -tags purego have.

// AddInto adds src into dst element by element: dst[i] += src[i]. The slices
// must have the same length.
func AddInto(dst, src []float32) {
	if len(dst) != len(src) {
		panic("kernels: AddInto operands differ in length")
	}
	addInto(dst, src)
}

// MomentumStep applies one SGD-with-momentum update to the weights w with
// momentum buffer v, reading the gradient g once:
//
//	v = momentum·v + (g·scale + wd·w);  w -= lr·v
//
// Every product is rounded to float32 before it is added (never fused), in
// exactly that order, so scaling the gradient first in a separate pass and
// then stepping gives the same bits. The slices must have the same length.
func MomentumStep(w, v, g []float32, scale, wd, momentum, lr float32) {
	if len(v) != len(w) || len(g) != len(w) {
		panic("kernels: MomentumStep operands differ in length")
	}
	momentumStep(w, v, g, scale, wd, momentum, lr)
}

func addIntoPortable(dst, src []float32) {
	for i, s := range src {
		dst[i] += s
	}
}

// The float32 conversions keep a compiler that fuses multiply-add (arm64,
// ppc64, s390x) from doing so here: every GOARCH must produce amd64's bits,
// or replicas on mixed hosts drift apart.
func momentumStepPortable(w, v, g []float32, scale, wd, momentum, lr float32) {
	for j := range w {
		grad := float32(g[j]*scale) + float32(wd*w[j])
		v[j] = float32(momentum*v[j]) + grad
		w[j] -= float32(lr * v[j])
	}
}

// Rectify returns (v, true) when v > 0 and (+0, false) otherwise — zeros of
// either sign, negatives and NaN — without a branch: the sign of an
// activation is a coin flip, so a ReLU loop that branches on it mispredicts
// every other element and runs several times slower than one that selects.
func Rectify(v float32) (float32, bool) {
	b := math.Float32bits(v)
	var keep uint32
	if b-1 < 0x7f800000 { // the bit patterns of +denormal .. +Inf
		keep = ^uint32(0)
	}
	return math.Float32frombits(b & keep), keep != 0
}

// Gate returns g when keep is set and +0 otherwise, without a branch: the
// backward half of Rectify.
func Gate(g float32, keep bool) float32 {
	var m uint32
	if keep {
		m = 1
	}
	return math.Float32frombits(math.Float32bits(g) & -m)
}
