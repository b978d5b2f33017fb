//go:build !amd64 || purego

package tensor

// GemmKernel names the inner kernel Gemm runs in this build: always
// "portable" — there is no SIMD kernel for this GOARCH, or the purego tag
// asked for none.
func GemmKernel() string { return "portable" }

// gemmTile computes one C tile with the pure-Go loops.
func gemmTile(transA, transB bool, rlo, rhi, clo, chi, fullM, fullN, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	gemmTilePortable(transA, transB, rlo, rhi, clo, chi, fullM, fullN, k, alpha, a, b, beta, c)
}

func tapAxpy(c, a []float32, astride int, b []float32, offs []int, add bool) {
	tapAxpyPortable(c, a, astride, b, offs, add)
}

func (g *ConvPack) gradWeightRows(lo, hi int, gradOut, xpack, partial []float32, add bool) {
	g.gradWeightRowsPortable(lo, hi, gradOut, xpack, partial, add)
}
