// Package convref is the column-matrix lowering of a convolution — Im2Col,
// one GEMM, Col2Im — that tensor.ConvPack replaced and is held to, bit for
// bit. It is imported from _test.go files only (tensor's and nn's) and is
// linked into no binary; it stands alone so that tensor's own tests can
// import it.
package convref

// Im2Col lowers a single image (C×H×W, flat row-major in src) into a column
// matrix of shape (C*kh*kw) × (outH*outW) stored flat row-major in dst, so a
// convolution becomes one GEMM: weights (outC × C*kh*kw) times columns.
// Out-of-bounds taps (from padding) contribute zeros.
//
// With strideW == 1 an output row's in-bounds taps are one contiguous run of
// the input row, so it is copied whole and only the padded edges are
// zero-filled; other strides test each tap.
func Im2Col(src []float32, channels, height, width, kh, kw, strideH, strideW, padH, padW int, dst []float32) (outH, outW int) {
	outH = outSize(height, kh, strideH, padH)
	outW = outSize(width, kw, strideW, padW)
	cols := outH * outW
	row := 0
	for c := 0; c < channels; c++ {
		plane := src[c*height*width : (c+1)*height*width]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				drow := dst[row*cols : (row+1)*cols]
				row++
				lo, hi := unitStrideRun(kx, padW, width, outW)
				di := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*strideH - padH + ky
					if iy < 0 || iy >= height {
						zeroFill(drow[di : di+outW])
						di += outW
						continue
					}
					base := iy * width
					ix := -padW + kx
					if strideW == 1 {
						out := drow[di : di+outW]
						zeroFill(out[:lo])
						if lo < hi { // an empty run may sit left of the row's start
							copy(out[lo:hi], plane[base+ix+lo:base+ix+hi])
						}
						zeroFill(out[hi:])
						di += outW
						continue
					}
					for ox := 0; ox < outW; ox++ {
						if ix >= 0 && ix < width {
							drow[di] = plane[base+ix]
						} else {
							drow[di] = 0
						}
						di++
						ix += strideW
					}
				}
			}
		}
	}
	return outH, outW
}

// outSize is tensor.ConvOutSize.
func outSize(in, kernel, stride, pad int) int {
	if in+2*pad < kernel {
		return 0
	}
	return (in+2*pad-kernel)/stride + 1
}

// unitStrideRun returns the output columns [lo,hi) of one output row whose
// tap ix = ox - padW + kx lands inside [0,width) when strideW is 1; columns
// outside it read padding.
func unitStrideRun(kx, padW, width, outW int) (lo, hi int) {
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > outW {
			return outW
		}
		return v
	}
	return clamp(padW - kx), clamp(width + padW - kx)
}

func zeroFill(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// Col2Im is the adjoint of Im2Col: it scatters-and-accumulates the column
// matrix back into an image gradient of shape C×H×W (dst is NOT zeroed first;
// callers zero it when they want a pure adjoint). With strideW == 1 an output
// row's in-bounds taps are added as one contiguous run, in the same ascending
// order as the per-tap loop.
func Col2Im(cols []float32, channels, height, width, kh, kw, strideH, strideW, padH, padW int, dst []float32) {
	outH := outSize(height, kh, strideH, padH)
	outW := outSize(width, kw, strideW, padW)
	n := outH * outW
	row := 0
	for c := 0; c < channels; c++ {
		plane := dst[c*height*width : (c+1)*height*width]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				srow := cols[row*n : (row+1)*n]
				row++
				lo, hi := unitStrideRun(kx, padW, width, outW)
				si := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*strideH - padH + ky
					if iy < 0 || iy >= height {
						si += outW
						continue
					}
					base := iy * width
					ix := -padW + kx
					if strideW == 1 {
						if lo < hi {
							in := srow[si+lo : si+hi]
							out := plane[base+ix+lo : base+ix+hi : base+ix+hi]
							for j, v := range in {
								out[j] += v
							}
						}
						si += outW
						continue
					}
					for ox := 0; ox < outW; ox++ {
						if ix >= 0 && ix < width {
							plane[base+ix] += srow[si]
						}
						si++
						ix += strideW
					}
				}
			}
		}
	}
}
