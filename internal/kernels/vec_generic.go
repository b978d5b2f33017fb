//go:build !amd64 || purego

package kernels

func addInto(dst, src []float32) { addIntoPortable(dst, src) }

func momentumStep(w, v, g []float32, scale, wd, momentum, lr float32) {
	momentumStepPortable(w, v, g, scale, wd, momentum, lr)
}
