//go:build !amd64 || purego

package kernels

func addInto(dst, src []float32) { addIntoPortable(dst, src) }

func momentumStep(w, v, g []float32, scale, wd, momentum, lr float32) {
	momentumStepPortable(w, v, g, scale, wd, momentum, lr)
}

func rectifyInto(dst, src []float32) { rectifyIntoPortable(dst, src) }

func addRectifyInto(dst, a, b []float32) { addRectifyIntoPortable(dst, a, b) }

func gateInto(dst, grad, y []float32) { gateIntoPortable(dst, grad, y) }

func maxPool2x2(out []float32, argmax []int32, row0, row1 []float32, base, w int) {
	maxPool2x2Portable(out, argmax, row0, row1, base, w)
}
