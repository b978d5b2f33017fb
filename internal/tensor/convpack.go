package tensor

import (
	"fmt"

	"repro/internal/kernels"
)

// ConvPack is one stride-1 convolution geometry lowered along kx only — the
// layout MEC describes (Cho & Brand, ICML 2017) — so that none of the three
// products of a training step needs the (C·kh·kw) × (outH·outW) column
// matrix Im2Col writes.
//
// A pack holds, for every channel, kw copies of the row-padded plane, copy
// kx shifted left by kx columns and cut to outW columns:
//
//	pack[(c·kw+kx)·rows + r][j] = padded[c][r][j+kx]     rows = H + 2·padH
//
// Because every row is exactly outW wide, the outH rows a tap (c,ky,kx)
// slides over are adjacent in memory: the tap's im2col row IS the window of
// outH·outW floats starting at row ky of copy (c,kx). The forward product
// and the weight gradient read those windows in place; the input gradient
// reads the same pack applied to gradOut (padded by k-1-pad) at the flipped
// tap. kw·rows·outW floats per channel — 3× the image for 3×3 where the
// column matrix is 9× — written with kw long copies per channel.
//
// Every output, dW and dX element sees the multiply-then-add sequence
// Im2Col+Gemm+Col2Im give it (docs/ARCHITECTURE.md, "Convolution without the
// column matrix", has the argument), so the two lowerings agree bit for bit.
type ConvPack struct {
	InC, OutC  int
	H, W       int
	KH, KW     int
	PadH, PadW int
	OutH, OutW int

	// gPadH/gPadW pad gradOut for the input gradient's full correlation:
	// k-1-pad, negative (a crop) when the forward pass over-padded.
	gPadH, gPadW int
	// xRows and gRows are the rows of one shifted copy in the input pack and
	// in the gradOut pack.
	xRows, gRows int
	// tapOffs[p] is where the window of tap p = (c·KH+ky)·KW+kx starts in the
	// input pack; ocOffs[oc] where output channel oc's copies start in the
	// gradOut pack.
	tapOffs, ocOffs []int
}

// NewConvPack describes the stride-1 convolution of an inC×h×w image with
// outC kernels of kh×kw under padH×padW zero padding. The output must be at
// least 1×1.
func NewConvPack(inC, outC, h, w, kh, kw, padH, padW int) *ConvPack {
	g := &ConvPack{
		InC: inC, OutC: outC, H: h, W: w, KH: kh, KW: kw, PadH: padH, PadW: padW,
		OutH: ConvOutSize(h, kh, 1, padH), OutW: ConvOutSize(w, kw, 1, padW),
		gPadH: kh - 1 - padH, gPadW: kw - 1 - padW,
	}
	if inC < 1 || outC < 1 || g.OutH < 1 || g.OutW < 1 || padH < 0 || padW < 0 {
		panic(fmt.Sprintf("tensor: ConvPack of %d×%d×%d by %d kernels %d×%d pad %d×%d has no output", inC, h, w, outC, kh, kw, padH, padW))
	}
	g.xRows = h + 2*padH
	g.gRows = g.OutH + 2*g.gPadH
	g.tapOffs = make([]int, inC*kh*kw)
	for c := 0; c < inC; c++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				g.tapOffs[(c*kh+ky)*kw+kx] = ((c*kw+kx)*g.xRows + ky) * g.OutW
			}
		}
	}
	g.ocOffs = make([]int, outC)
	for oc := range g.ocOffs {
		g.ocOffs[oc] = oc * kw * g.gRows * w
	}
	return g
}

// InputPackLen is the length of the pack PackInput fills.
func (g *ConvPack) InputPackLen() int { return g.InC * g.KW * g.xRows * g.OutW }

// GradOutPackLen is the length of the pack PackGradOut fills.
func (g *ConvPack) GradOutPackLen() int { return g.OutC * g.KW * g.gRows * g.W }

// PackInput lowers one InC×H×W image into dst. Only the rows that hold image
// rows are written: the PadH rows above and below them in every copy are the
// zero padding, which the caller provides once (a fresh or cleared buffer)
// and every later PackInput of the same geometry leaves alone.
func (g *ConvPack) PackInput(dst, x []float32) {
	packShifted(dst[:g.InputPackLen()], x[:g.InC*g.H*g.W], g.InC, g.H, g.W, g.KW, g.PadH, g.PadW, g.xRows, g.OutW)
}

// PackGradOut lowers one OutC×OutH×OutW output gradient into dst for
// GradInput, under the same zero-rows contract as PackInput.
func (g *ConvPack) PackGradOut(dst, gradOut []float32) {
	packShifted(dst[:g.GradOutPackLen()], gradOut[:g.OutC*g.OutH*g.OutW], g.OutC, g.OutH, g.OutW, g.KW, g.gPadH, g.gPadW, g.gRows, g.W)
}

// packShifted writes the kw shifted copies of every h×w plane of src: pack
// row r holds image row r-padH, pack column j of copy kx image column
// j+kx-padW, zero where that falls off the plane. A negative pad crops.
func packShifted(dst, src []float32, channels, h, w, kw, padH, padW, rows, outW int) {
	r0, r1 := padH, padH+h // pack rows holding image rows
	if r0 < 0 {
		r0 = 0
	}
	if r1 > rows {
		r1 = rows
	}
	for c := 0; c < channels; c++ {
		plane := src[c*h*w : (c+1)*h*w]
		for kx := 0; kx < kw; kx++ {
			cp := dst[(c*kw+kx)*rows*outW : (c*kw+kx+1)*rows*outW]
			d := kx - padW
			lo, hi := unitStrideRun(kx, padW, w, outW)
			if outW == w {
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
			for r := r0; r < r1; r++ {
				out := cp[r*outW : (r+1)*outW]
				zeroFill(out[:lo])
				if lo < hi {
					base := (r-padH)*w + d
					copy(out[lo:hi], plane[base+lo:base+hi])
				}
				zeroFill(out[hi:])
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
// packed by PackGradOut: for every input channel, the taps in ascending
// (ky,kx), each tap's Σ_oc W·g formed from +0 over ascending oc with zero
// weights skipped (Gemm's TN order with beta 0) and read from gpack at the
// flipped tap's window; the first tap's sum is stored, the rest added in
// order — Col2Im's add order onto a cleared plane, without the column
// gradient or the clear. Where Col2Im skips a tap that hangs over the edge,
// this adds the +0 a sum of products with padding zeros comes to, which
// changes no bit while the weights are finite.
func (g *ConvPack) GradInput(weights, gpack, gradIn []float32) {
	k, n := len(g.tapOffs), g.H*g.W
	checkConvOperands(len(weights), g.OutC*k, len(gpack), g.GradOutPackLen(), len(gradIn), g.InC*n)
	tiles := poolTiles(g.InC*n*g.KH*g.KW*g.OutC, g.InC)
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
	for c := lo; c < hi; c++ {
		dst := gradIn[c*n : (c+1)*n]
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				t := ky*g.KW + kx
				win := ((g.KW-1-kx)*g.gRows + g.KH - 1 - ky) * g.W
				tapAxpy(dst, weights[c*taps+t:], k, gpack[win:], g.ocOffs, t > 0)
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
