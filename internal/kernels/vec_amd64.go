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
