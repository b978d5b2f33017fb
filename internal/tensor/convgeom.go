package tensor

// tapRun returns the output columns [lo,hi) of one output row whose tap
// ix = ox·stride - padW + kx lands inside [0,width); columns outside it read
// padding.
func tapRun(kx, padW, width, outW, stride int) (lo, hi int) {
	clamp := func(v int) int { // ⌈v/stride⌉ held to [0,outW]
		return min(max(v+stride-1, 0)/stride, outW)
	}
	return clamp(padW - kx), clamp(width + padW - kx)
}

func zeroFill(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// ConvOutSize returns the spatial output size of a convolution/pooling with
// the given geometry: 0 when the kernel does not fit inside the padded input
// (Go's division truncates toward zero, so the bare formula would give 1 for
// a window hanging one off the edge at stride 2, and -1 further out).
func ConvOutSize(in, kernel, stride, pad int) int {
	if in+2*pad < kernel {
		return 0
	}
	return (in+2*pad-kernel)/stride + 1
}
