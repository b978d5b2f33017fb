package kernels

import "math"

// The vector kernels: the training step's tail — the receive-reduce of every
// allreduce hop and the SGD update — and the layers between the convolutions
// — ReLU each way, the residual add-and-gate, the 2×2 max pool — which run at
// memory speed or not at all. Each has an AVX2 body (vec_amd64.s, chosen by
// UseAVX2) and the pure-Go loop below, which is the reference the AVX2 body
// is held to bit for bit and the only body other GOARCHes and -tags purego
// have.

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

// RectifyInto stores the rectified src in dst: dst[i] = src[i] where
// src[i] > 0 and +0 otherwise — zeros of either sign, negatives and NaN. Every
// element is stored (dst is a reused activation). The slices must have the
// same length.
func RectifyInto(dst, src []float32) {
	if len(dst) != len(src) {
		panic("kernels: RectifyInto operands differ in length")
	}
	rectifyInto(dst, src)
}

// AddRectifyInto is a residual block's add-and-gate in one pass:
// dst[i] = rectify(a[i] + b[i]), RectifyInto's values. The slices must have
// the same length.
func AddRectifyInto(dst, a, b []float32) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("kernels: AddRectifyInto operands differ in length")
	}
	addRectifyInto(dst, a, b)
}

// GateInto is the backward half of RectifyInto, gated on the forward's own
// output y: dst[i] = grad[i] where y[i] > 0 and +0 otherwise. A rectified
// output is positive exactly where its input was, so no mask is kept beside
// it. The slices must have the same length.
func GateInto(dst, grad, y []float32) {
	if len(grad) != len(dst) || len(y) != len(dst) {
		panic("kernels: GateInto operands differ in length")
	}
	gateInto(dst, grad, y)
}

// MaxPool2x2 pools one output row of a 2×2 / stride 2 / unpadded max pool:
// out[ox] is the maximum of row0[2ox], row0[2ox+1], row1[2ox], row1[2ox+1]
// and argmax[ox] its flat input index, where row0[0] has index base and
// row1[0] index base+w. The taps are tried in that order under a strict >
// starting from (−Inf, −1): the first maximum wins a tie, NaN never wins, and
// a window of nothing but NaN and −Inf stores −Inf and −1 — the general
// pooling loop's values and indices. The rows must hold at least 2·len(out)
// elements each (one more when the input width is odd; it is not read).
func MaxPool2x2(out []float32, argmax []int32, row0, row1 []float32, base, w int) {
	n := len(out)
	if len(argmax) != n || len(row0) < 2*n || len(row1) < 2*n {
		panic("kernels: MaxPool2x2 operands too short")
	}
	maxPool2x2(out, argmax, row0, row1, base, w)
}

// positive returns all ones when v > 0 and zero otherwise — zeros of either
// sign, negatives and NaN — without a branch: the sign of an activation is a
// coin flip, so a loop that branches on it mispredicts every other element.
func positive(v float32) uint32 {
	var keep uint32
	if math.Float32bits(v)-1 < 0x7f800000 { // the bit patterns of +denormal .. +Inf
		keep = ^uint32(0)
	}
	return keep
}

func rectifyIntoPortable(dst, src []float32) {
	for i, v := range src {
		dst[i] = math.Float32frombits(math.Float32bits(v) & positive(v))
	}
}

func addRectifyIntoPortable(dst, a, b []float32) {
	for i, v := range a {
		v += b[i]
		dst[i] = math.Float32frombits(math.Float32bits(v) & positive(v))
	}
}

func gateIntoPortable(dst, grad, y []float32) {
	for i, g := range grad {
		dst[i] = math.Float32frombits(math.Float32bits(g) & positive(y[i]))
	}
}

func maxPool2x2Portable(out []float32, argmax []int32, row0, row1 []float32, base, w int) {
	for ox := range out {
		best, idx := float32(math.Inf(-1)), int32(-1)
		if v := row0[2*ox]; v > best {
			best, idx = v, int32(base+2*ox)
		}
		if v := row0[2*ox+1]; v > best {
			best, idx = v, int32(base+2*ox+1)
		}
		if v := row1[2*ox]; v > best {
			best, idx = v, int32(base+w+2*ox)
		}
		if v := row1[2*ox+1]; v > best {
			best, idx = v, int32(base+w+2*ox+1)
		}
		out[ox], argmax[ox] = best, idx
	}
}
