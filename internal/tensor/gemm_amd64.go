//go:build amd64 && !purego

package tensor

import "repro/internal/kernels"

// The AVX2 kernels (gemm_amd64.s). Strides and leading dimensions are in
// elements. They trust their arguments: gemmTileAVX2 checks the operand
// extents once per tile before handing out raw pointers.

//go:noescape
func axpyRowAVX2(c *float32, n int, a *float32, astride, k int, b *float32, ldb int, alpha float32, store bool)

//go:noescape
func dotTile4AVX2(k int, a *float32, sap int, b *float32, ldb int, c *float32, ldc, lane0 int, alpha, beta float32, sai int)

//go:noescape
func dotTile1AVX2(k int, a *float32, sap int, b *float32, ldb int, c *float32, ldc, lane0 int, alpha, beta float32)

// GemmKernel names the inner kernel Gemm runs on this machine: "avx2" or
// "portable".
func GemmKernel() string {
	if kernels.UseAVX2 {
		return "avx2"
	}
	return "portable"
}

// gemmTile computes one C tile with the kernel chosen at init.
func gemmTile(transA, transB bool, rlo, rhi, clo, chi, fullM, fullN, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	if kernels.UseAVX2 {
		gemmTileAVX2(transA, transB, rlo, rhi, clo, chi, fullM, fullN, k, alpha, a, b, beta, c)
		return
	}
	gemmTilePortable(transA, transB, rlo, rhi, clo, chi, fullM, fullN, k, alpha, a, b, beta, c)
}

// gemmTileAVX2 is gemmTilePortable on the AVX2 kernels: the same tile, the
// same per-element operation sequence, eight C elements at a time.
func gemmTileAVX2(transA, transB bool, rlo, rhi, clo, chi, fullM, fullN, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	n := fullN
	width := chi - clo
	if transB && width < 8 {
		// Narrower than one vector of outputs.
		gemmTilePortable(transA, transB, rlo, rhi, clo, chi, fullM, fullN, k, alpha, a, b, beta, c)
		return
	}
	// The kernels take raw pointers; a short operand must panic here, as the
	// portable loops' bounds checks would, not be read past its end.
	if len(a) < fullM*k || len(b) < k*n || len(c) < fullM*n {
		panic("tensor: Gemm operand shorter than its dimensions")
	}

	// op(A)[i,p] = a[i*sai+p*sap].
	sai, sap := k, 1
	if transA {
		sai, sap = 1, fullM
	}
	if !transB {
		// At beta 0 the kernel stores: the sums are formed in registers from
		// +0 and C is neither zero-filled nor read — the bits of the portable
		// tile's fill-then-accumulate, without its two extra passes over C.
		store := beta == 0
		for i := rlo; i < rhi; i++ {
			ci := c[i*n+clo : i*n+chi]
			if !store {
				scaleRange(ci, beta)
			}
			axpyRowAVX2(&ci[0], width, &a[i*sai], sap, k, &b[clo], n, alpha, store)
		}
		return
	}
	// B stored n×k. Eight B rows — eight C columns — per kernel call; the
	// last block is moved left to end at chi and stores only the lanes the
	// previous block did not cover. Column blocks are the outer loop so a
	// block's B rows are read from memory once for all the tile's C rows.
	for j := clo; j < chi; j += 8 {
		lane0 := 0
		if j+8 > chi {
			lane0 = j + 8 - chi
			j = chi - 8
		}
		bj := &b[j*k]
		i := rlo
		for ; i+4 <= rhi; i += 4 {
			dotTile4AVX2(k, &a[i*sai], sap, bj, k, &c[i*n+j], n, lane0, alpha, beta, sai)
		}
		for ; i < rhi; i++ {
			dotTile1AVX2(k, &a[i*sai], sap, bj, k, &c[i*n+j], n, lane0, alpha, beta)
		}
	}
}

//go:noescape
func tapAxpyAVX2(c *float32, n int, a *float32, astride, k int, b *float32, offs *int, add bool)

// tapAxpy is ConvPack's axpy: c[j] = Σ_p a[p·astride]·b[offs[p]+j], added to
// c[j] when add is set — see tapAxpyPortable. The caller has checked that
// every window offs[p]+len(c) lies inside b and every a[p·astride] inside a.
func tapAxpy(c, a []float32, astride int, b []float32, offs []int, add bool) {
	if kernels.UseAVX2 && len(c) > 0 && len(offs) > 0 {
		tapAxpyAVX2(&c[0], len(c), &a[0], astride, len(offs), &b[0], &offs[0], add)
		return
	}
	tapAxpyPortable(c, a, astride, b, offs, add)
}

//go:noescape
func dotTapsAVX2(k int, a *float32, sai, rows int, b *float32, offs *int, c *float32, ldc, lane0 int, add bool)

// gradWeightRows is GradWeight's output channels [lo,hi): the NT loop of
// gemmTileAVX2 — eight taps a kernel call, the last block moved left to end
// at the last tap — with B's rows found through the tap offsets.
func (g *ConvPack) gradWeightRows(lo, hi int, gradOut, xpack, partial []float32, add bool) {
	k, n := len(g.tapOffs), g.OutH*g.OutW
	if !kernels.UseAVX2 || k < 8 {
		g.gradWeightRowsPortable(lo, hi, gradOut, xpack, partial, add)
		return
	}
	for j := 0; j < k; j += 8 {
		lane0 := 0
		if j+8 > k {
			lane0 = j + 8 - k
			j = k - 8
		}
		i := lo
		for ; i+4 <= hi; i += 4 {
			dotTapsAVX2(n, &gradOut[i*n], n, 4, &xpack[0], &g.tapOffs[j], &partial[i*k+j], k, lane0, add)
		}
		for ; i < hi; i++ {
			dotTapsAVX2(n, &gradOut[i*n], n, 1, &xpack[0], &g.tapOffs[j], &partial[i*k+j], k, lane0, add)
		}
	}
}
