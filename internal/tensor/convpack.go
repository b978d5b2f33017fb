package tensor

import (
	"fmt"

	"repro/internal/kernels"
)

// ConvPack is one convolution geometry lowered along kx only — the layout MEC
// describes (Cho & Brand, ICML 2017) — so that none of the three products of
// a training step needs the (C·kh·kw) × (outH·outW) column matrix.
//
// A pack holds, for every channel, kw copies of the row-padded plane; copy kx
// keeps the outW columns the taps (·,kx) read, every StrideW-th from kx on:
//
//	copy(c,kx)[r][j] = padded[c][r][j·StrideW+kx]     r < (OutH-1)·StrideH + KH
//
// and stores its rows de-interleaved by r mod StrideH into phase blocks of
// phRows rows each, row r at row r div StrideH of block r mod StrideH (one
// block, rows in order, at stride 1). Because every row is exactly outW wide
// and the rows ky, ky+StrideH, … are neighbours in their block, the outH rows
// a tap (c,ky,kx) slides over are adjacent in memory: the tap's column-matrix
// row IS the window of outH·outW floats starting at row ky div StrideH of
// block ky mod StrideH of copy (c,kx). The forward product and the weight
// gradient read those windows in place. Blocks no ky lands on (a 1×1 kernel
// at stride 2) are not stored. kw·rows·outW floats per channel — 3× the image
// for 3×3 at stride 1, ¾ of the column matrix for 3×3 at stride 2.
//
// The input gradient splits by stride phase: the input positions with
// (y+PadH) mod StrideH = py and (x+PadW) mod StrideW = px receive exactly the
// taps ky ≡ py, kx ≡ px, so each of the StrideH·StrideW sub-planes is a
// stride-1 correlation of gradOut with the sub-kernel W[·,·,py+StrideH·a,
// px+StrideW·b], read from a pack of gradOut (PackGradOut) that holds one
// copy per distinct column shift.
//
// Every output, dW and dX element sees the multiply-then-add sequence the
// column-matrix lowering (internal/tensor/convref around Gemm, the tests'
// reference) gives it; docs/ARCHITECTURE.md, "Convolution without
// the column matrix", has the argument.
type ConvPack struct {
	InC, OutC        int
	H, W             int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	OutH, OutW       int

	// xRows is the rows of one copy in the input pack: phRows for each of the
	// min(StrideH, KH) stored phase blocks.
	xRows, phRows int
	// The gradOut pack: gCopies copies per output channel, copy q shifted by
	// q-gPadW columns, each gRows rows of gW = ⌈W/StrideW⌉ floats — the width
	// of a phase sub-plane — under gPadH rows of zeros. Both pads are k-1-pad
	// at stride 1, and negative (a crop) when the forward pass over-padded.
	gPadH, gPadW, gRows, gCopies, gW int
	// gLen is the length of all the copies. After them the gradOut pack's
	// buffer holds the scratch GradInput needs at stride > 1: per input
	// channel subLen floats, one phase sub-plane of ⌈H/StrideH⌉ × gW.
	gLen, subLen int
	// tapOffs[p] is where the window of tap p = (c·KH+ky)·KW+kx starts in the
	// input pack; ocOffs[oc] where output channel oc's copies start in the
	// gradOut pack.
	tapOffs, ocOffs []int
}

// NewConvPack describes the convolution of an inC×h×w image with outC kernels
// of kh×kw at the given strides under padH×padW zero padding. The output must
// be at least 1×1.
func NewConvPack(inC, outC, h, w, kh, kw, strideH, strideW, padH, padW int) *ConvPack {
	if inC < 1 || outC < 1 || kh < 1 || kw < 1 || strideH < 1 || strideW < 1 || padH < 0 || padW < 0 ||
		ConvOutSize(h, kh, strideH, padH) < 1 || ConvOutSize(w, kw, strideW, padW) < 1 {
		panic(fmt.Sprintf("tensor: ConvPack of %d×%d×%d by %d kernels %d×%d stride %d×%d pad %d×%d has no output", inC, h, w, outC, kh, kw, strideH, strideW, padH, padW))
	}
	g := &ConvPack{
		InC: inC, OutC: outC, H: h, W: w, KH: kh, KW: kw, StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
		OutH: ConvOutSize(h, kh, strideH, padH), OutW: ConvOutSize(w, kw, strideW, padW),
	}
	g.phRows = g.OutH + (kh-1)/strideH
	g.xRows = min(strideH, kh) * g.phRows
	g.tapOffs = make([]int, inC*kh*kw)
	for c := 0; c < inC; c++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				g.tapOffs[(c*kh+ky)*kw+kx] = ((c*kw+kx)*g.xRows + ky%strideH*g.phRows + ky/strideH) * g.OutW
			}
		}
	}
	var maxU0, maxV0 int
	g.gPadH, maxU0 = gradPad(h, kh, strideH, padH)
	g.gPadW, maxV0 = gradPad(w, kw, strideW, padW)
	subH := (h + strideH - 1) / strideH
	g.gW = (w + strideW - 1) / strideW
	g.gRows, g.gCopies = g.gPadH+maxU0+subH, g.gPadW+maxV0+1
	if strideH > 1 || strideW > 1 {
		g.subLen = subH * g.gW
	}
	g.ocOffs = make([]int, outC)
	for oc := range g.ocOffs {
		g.ocOffs[oc] = oc * g.gCopies * g.gRows * g.gW
	}
	g.gLen = outC * g.gCopies * g.gRows * g.gW
	return g
}

// phase describes, along one axis, the input positions y with
// (y+pad) mod stride = p: the first of them, how many fit below size, and the
// output position u0 = (first+pad-p)/stride that tap p reads the first at.
// Position first+stride·i takes tap p+stride·a from output position u0+i-a.
func phase(size, stride, pad, p int) (first, count, u0 int) {
	first = ((p-pad)%stride + stride) % stride
	if first < size {
		count = (size - first + stride - 1) / stride
	}
	return first, count, (first + pad - p) / stride
}

// gradPad sizes one axis of the gradOut pack: gPad zeros before gradOut's
// first row (column) so that no tap's window starts before the pack does, and
// the largest u0 any phase has.
func gradPad(size, k, stride, pad int) (gPad, maxU0 int) {
	for t := 0; t < k; t++ {
		_, _, u0 := phase(size, stride, pad, t%stride)
		if d := t/stride - u0; t == 0 || d > gPad {
			gPad = d
		}
		maxU0 = max(maxU0, u0)
	}
	return gPad, maxU0
}

// InputPackLen is the length of the pack PackInput fills.
func (g *ConvPack) InputPackLen() int { return g.InC * g.KW * g.xRows * g.OutW }

// GradOutPackLen is the length of the buffer PackGradOut fills and GradInput
// reads: the copies, then (at stride > 1) GradInput's sub-plane scratch.
func (g *ConvPack) GradOutPackLen() int { return g.gLen + g.InC*g.subLen }

// PackInput lowers one InC×H×W image into dst. Only the rows that hold image
// rows are written: the rows that hold the PadH rows above and below them in
// every copy are the zero padding, which the caller provides once (a fresh or
// cleared buffer) and every later PackInput of the same geometry leaves alone.
func (g *ConvPack) PackInput(dst, x []float32) {
	packShifted(dst[:g.InputPackLen()], x[:g.InC*g.H*g.W], g.InC, g.H, g.W, g.KW, g.PadH, g.PadW, g.xRows, g.OutW,
		g.StrideH, g.StrideW, g.phRows)
}

// PackGradOut lowers one OutC×OutH×OutW output gradient into dst for
// GradInput, under the same zero-rows contract as PackInput.
func (g *ConvPack) PackGradOut(dst, gradOut []float32) {
	packShifted(dst[:g.gLen], gradOut[:g.OutC*g.OutH*g.OutW], g.OutC, g.OutH, g.OutW, g.gCopies, g.gPadH, g.gPadW, g.gRows, g.gW,
		1, 1, g.gRows)
}

// packShifted writes the copies of every h×w plane of src: padded row r holds
// image row r-padH and lands at row r div strideH of phase block r mod strideH
// (phRows rows a block; blocks past the copy's rows are not stored); column j
// of copy kx holds image column j·strideW+kx-padW, zero where that falls off
// the plane. A negative pad crops.
func packShifted(dst, src []float32, channels, h, w, copies, padH, padW, rows, outW, strideH, strideW, phRows int) {
	r0, r1 := max(padH, 0), min(padH+h, phRows*strideH) // padded rows holding image rows
	ph0, at0 := r0%strideH, r0/strideH
	unit := strideH == 1 && strideW == 1
	for c := 0; c < channels; c++ {
		plane := src[c*h*w : (c+1)*h*w]
		for kx := 0; kx < copies; kx++ {
			cp := dst[(c*copies+kx)*rows*outW : (c*copies+kx+1)*rows*outW]
			d := kx - padW
			lo, hi := tapRun(kx, padW, w, outW, strideW)
			if unit && outW == w {
				// Pack rows and image rows have the same width, so the whole
				// block is the image shifted by d floats: one long copy, whose
				// wrapped-around edge columns the stores below overwrite.
				body := cp[r0*w : r1*w]
				from := (r0-padH)*w + d
				blo, bhi := 0, len(body)
				if from < 0 {
					blo = -from
				}
				if over := from + bhi - len(plane); over > 0 {
					bhi -= over
				}
				if blo < bhi {
					copy(body[blo:bhi], plane[from+blo:from+bhi])
				}
				for r := r0; r < r1 && (lo > 0 || hi < w); r++ {
					out := cp[r*w : (r+1)*w]
					zeroFill(out[:lo])
					zeroFill(out[hi:])
				}
				continue
			}
			ph, at := ph0, at0 // padded row r is row at of phase block ph
			for r := r0; r < r1; r++ {
				if ph*phRows < rows { // else a phase block no tap reads
					out := cp[(ph*phRows+at)*outW:][:outW]
					zeroFill(out[:lo])
					if in := plane[(r-padH)*w:]; strideW == 1 && lo < hi {
						copy(out[lo:hi], in[d+lo:d+hi])
					} else {
						for j := lo; j < hi; j++ {
							out[j] = in[j*strideW+d]
						}
					}
					zeroFill(out[hi:])
				}
				if ph++; ph == strideH {
					ph, at = 0, at+1
				}
			}
		}
	}
}

// poolTiles says into how many pieces a product of the given multiply-adds
// over rows independent outputs is worth splitting on the kernels pool:
// Gemm's rule, so a convolution too large for one worker and too small in
// batch to fill the pool still spreads out.
func poolTiles(flops, rows int) int {
	tiles := kernels.Workers()
	if lim := flops/minFlopsPerTile + 1; tiles > lim {
		tiles = lim
	}
	if tiles > rows {
		tiles = rows
	}
	return tiles
}

// Forward computes out (OutC × OutH·OutW) = weights (OutC × InC·KH·KW) times
// the column matrix of the image packed in xpack, without forming it: each
// output row is one axpy whose B rows are the tap windows. Per element: from
// +0, ascending p, taps whose weight is zero skipped, padding an explicit
// zero that is multiplied — Gemm's NN order with beta 0.
func (g *ConvPack) Forward(weights, xpack, out []float32) {
	k, n := len(g.tapOffs), g.OutH*g.OutW
	checkConvOperands(len(weights), g.OutC*k, len(xpack), g.InputPackLen(), len(out), g.OutC*n)
	tiles := poolTiles(g.OutC*n*k, g.OutC)
	if tiles <= 1 {
		g.forwardRows(0, g.OutC, weights, xpack, out)
		return
	}
	kernels.Run(tiles, func(t int) {
		g.forwardRows(t*g.OutC/tiles, (t+1)*g.OutC/tiles, weights, xpack, out)
	})
}

func (g *ConvPack) forwardRows(lo, hi int, weights, xpack, out []float32) {
	k, n := len(g.tapOffs), g.OutH*g.OutW
	for oc := lo; oc < hi; oc++ {
		tapAxpy(out[oc*n:(oc+1)*n], weights[oc*k:(oc+1)*k], 1, xpack, g.tapOffs, false)
	}
}

// GradWeight computes this image's weight gradient: for every (oc, tap) the
// dot product of gradOut's row oc with the tap's window of xpack, summed from
// +0 over ascending output positions. With add set it is added to partial —
// Gemm's NT order with beta 1; without, it is stored as 0 + sum, which is
// what adding it to a cleared partial gives, so the first image of a chunk
// needs no clear. partial has the weight layout, (OutC × InC·KH·KW).
func (g *ConvPack) GradWeight(gradOut, xpack, partial []float32, add bool) {
	k, n := len(g.tapOffs), g.OutH*g.OutW
	checkConvOperands(len(gradOut), g.OutC*n, len(xpack), g.InputPackLen(), len(partial), g.OutC*k)
	tiles := poolTiles(g.OutC*n*k, (g.OutC+tileRowQuantum-1)/tileRowQuantum)
	if tiles <= 1 {
		g.gradWeightRows(0, g.OutC, gradOut, xpack, partial, add)
		return
	}
	per := (g.OutC + tiles - 1) / tiles
	per = (per + tileRowQuantum - 1) / tileRowQuantum * tileRowQuantum
	kernels.Run(tiles, func(t int) {
		lo, hi := t*per, (t+1)*per
		if hi > g.OutC {
			hi = g.OutC
		}
		if lo < hi {
			g.gradWeightRows(lo, hi, gradOut, xpack, partial, add)
		}
	})
}

// gradWeightRowsPortable is GradWeight's rows [lo,hi) in pure Go.
func (g *ConvPack) gradWeightRowsPortable(lo, hi int, gradOut, xpack, partial []float32, add bool) {
	k, n := len(g.tapOffs), g.OutH*g.OutW
	for oc := lo; oc < hi; oc++ {
		grow := gradOut[oc*n : (oc+1)*n]
		prow := partial[oc*k : (oc+1)*k]
		for p, off := range g.tapOffs {
			win := xpack[off : off+n]
			var s float32
			for i, gv := range grow {
				s += gv * win[i]
			}
			if add {
				prow[p] += s
			} else {
				prow[p] = s // 0 + s: a sum that starts at +0 is never -0
			}
		}
	}
}

// GradInput computes this image's input gradient (InC × H·W) from gradOut
// packed by PackGradOut, one stride phase at a time (the whole plane at
// stride 1): for every input channel and phase (py,px), the taps ky ≡ py,
// kx ≡ px in ascending (ky,kx), each tap's Σ_oc W·g formed from +0 over
// ascending oc with zero weights skipped (Gemm's TN order with beta 0) and
// read from gpack at the window that lines gradOut[u-a][v-b] up with
// sub-plane position (u,v); the first tap's sum is stored, the rest added in
// order — the order in which the reference scatters the column gradient
// onto a cleared plane, restricted to the phase, without the column gradient
// or the clear. At stride > 1 the sub-plane is
// computed gW wide in gpack's scratch tail (which is why gpack is written)
// and its in-range columns interleaved into the plane; positions of a phase
// no tap lands on keep the +0 a cleared plane held. Where the reference skips
// a tap that hangs over the edge, this adds the +0 a sum of products with padding
// zeros comes to, which changes no bit while the weights are finite.
func (g *ConvPack) GradInput(weights, gpack, gradIn []float32) {
	k, n := len(g.tapOffs), g.H*g.W
	checkConvOperands(len(weights), g.OutC*k, len(gpack), g.GradOutPackLen(), len(gradIn), g.InC*n)
	tiles := poolTiles(g.InC*n/(g.StrideH*g.StrideW)*g.KH*g.KW*g.OutC, g.InC)
	if tiles <= 1 {
		g.gradInputPlanes(0, g.InC, weights, gpack, gradIn)
		return
	}
	kernels.Run(tiles, func(t int) {
		g.gradInputPlanes(t*g.InC/tiles, (t+1)*g.InC/tiles, weights, gpack, gradIn)
	})
}

func (g *ConvPack) gradInputPlanes(lo, hi int, weights, gpack, gradIn []float32) {
	k, n, taps := len(g.tapOffs), g.H*g.W, g.KH*g.KW
	if g.StrideH > g.KH || g.StrideW > g.KW {
		zeroFill(gradIn[lo*n : hi*n]) // the phases no tap lands on
	}
	for py := 0; py < min(g.StrideH, g.KH); py++ {
		y0, rows, u0 := phase(g.H, g.StrideH, g.PadH, py)
		for px := 0; px < min(g.StrideW, g.KW); px++ {
			x0, cols, v0 := phase(g.W, g.StrideW, g.PadW, px)
			for c := lo; c < hi && rows > 0 && cols > 0; c++ {
				dst := gradIn[c*n : (c+1)*n]
				sub := dst
				if g.subLen > 0 {
					sub = gpack[g.gLen+c*g.subLen:][:g.subLen]
				}
				// Tap (py+StrideH·a, px+StrideW·b) reads gradOut[u0+i-a][v0+j-b].
				for ky, row := py, g.gPadH+u0; ky < g.KH; ky, row = ky+g.StrideH, row-1 {
					for kx, cp := px, g.gPadW+v0; kx < g.KW; kx, cp = kx+g.StrideW, cp-1 {
						win := (cp*g.gRows + row) * g.gW
						tapAxpy(sub[:rows*g.gW], weights[c*taps+ky*g.KW+kx:], k, gpack[win:], g.ocOffs, ky > py || kx > px)
					}
				}
				for i := 0; i < rows && g.subLen > 0; i++ {
					at := (y0+i*g.StrideH)*g.W + x0
					for _, v := range sub[i*g.gW : i*g.gW+cols] {
						dst[at] = v
						at += g.StrideW
					}
				}
			}
		}
	}
}

func checkConvOperands(a, wantA, b, wantB, c, wantC int) {
	if a < wantA || b < wantB || c < wantC {
		panic("tensor: ConvPack operand shorter than its geometry")
	}
}

// tapAxpyPortable is tapAxpy in pure Go: c[j] = Σ_p a[p·astride]·b[offs[p]+j]
// (added to c[j] when add is set), every sum formed from +0 over ascending p
// with zero a's skipped. Columns go through a small accumulator tile that
// stands in for the registers the AVX2 body keeps a block's sums in.
func tapAxpyPortable(c, a []float32, astride int, b []float32, offs []int, add bool) {
	var tile [64]float32
	for j0 := 0; j0 < len(c); j0 += len(tile) {
		acc := tile[:min(len(tile), len(c)-j0)]
		zeroFill(acc)
		for p, off := range offs {
			s := a[p*astride]
			if s == 0 {
				continue
			}
			bp := b[off+j0 : off+j0+len(acc)]
			for j, bv := range bp {
				acc[j] += s * bv
			}
		}
		if !add {
			copy(c[j0:], acc)
			continue
		}
		for j, v := range acc {
			c[j0+j] += v
		}
	}
}
