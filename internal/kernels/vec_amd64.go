//go:build amd64 && !purego

package kernels

// The AVX2 bodies (vec_amd64.s). They trust their arguments: the exported
// wrappers have checked the lengths.

//go:noescape
func addIntoAVX2(dst, src *float32, n int)

//go:noescape
func momentumStepAVX2(w, v, grad *float32, n int, scale, wd, momentum, lr float32)

func addInto(dst, src []float32) {
	if UseAVX2 && len(dst) > 0 {
		addIntoAVX2(&dst[0], &src[0], len(dst))
		return
	}
	addIntoPortable(dst, src)
}

func momentumStep(w, v, g []float32, scale, wd, momentum, lr float32) {
	if UseAVX2 && len(w) > 0 {
		momentumStepAVX2(&w[0], &v[0], &g[0], len(w), scale, wd, momentum, lr)
		return
	}
	momentumStepPortable(w, v, g, scale, wd, momentum, lr)
}

//go:noescape
func rectifyIntoAVX2(dst, src *float32, n int)

//go:noescape
func addRectifyIntoAVX2(dst, a, b *float32, n int)

//go:noescape
func gateIntoAVX2(dst, grad, y *float32, n int)

// maxPool2x2AVX2 needs n ≥ 4: it pools a tail shorter than four outputs as
// the four that end the row, over again.
//
//go:noescape
func maxPool2x2AVX2(out *float32, argmax *int32, row0, row1 *float32, n, base, w int)

func rectifyInto(dst, src []float32) {
	if UseAVX2 && len(dst) > 0 {
		rectifyIntoAVX2(&dst[0], &src[0], len(dst))
		return
	}
	rectifyIntoPortable(dst, src)
}

func addRectifyInto(dst, a, b []float32) {
	if UseAVX2 && len(dst) > 0 {
		addRectifyIntoAVX2(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	addRectifyIntoPortable(dst, a, b)
}

func gateInto(dst, grad, y []float32) {
	if UseAVX2 && len(dst) > 0 {
		gateIntoAVX2(&dst[0], &grad[0], &y[0], len(dst))
		return
	}
	gateIntoPortable(dst, grad, y)
}

func maxPool2x2(out []float32, argmax []int32, row0, row1 []float32, base, w int) {
	if UseAVX2 && len(out) >= 4 {
		maxPool2x2AVX2(&out[0], &argmax[0], &row0[0], &row1[0], len(out), base, w)
		return
	}
	maxPool2x2Portable(out, argmax, row0, row1, base, w)
}
