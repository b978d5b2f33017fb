package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/tensor/convref"
)

// sameBits reports bit equality, with every NaN equal to every other: which
// operand's payload an x86 add or multiply of two NaNs keeps depends on the
// operand order the compiler happened to pick, which Go does not define.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func finite(x float32) bool { return !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0) }

// convGeom is one convolution geometry.
type convGeom struct{ inC, outC, h, w, kh, kw, sH, sW, padH, padW int }

func (g convGeom) String() string {
	return fmt.Sprintf("%d→%d@%dx%d k%dx%d stride%dx%d pad%dx%d", g.inC, g.outC, g.h, g.w, g.kh, g.kw, g.sH, g.sW, g.padH, g.padW)
}

func (g convGeom) outSize() (outH, outW int) {
	return ConvOutSize(g.h, g.kh, g.sH, g.padH), ConvOutSize(g.w, g.kw, g.sW, g.padW)
}

func (g convGeom) hasOutput() bool {
	outH, outW := g.outSize()
	return outH > 0 && outW > 0
}

// convResult is what one chunk of images leaves behind: every image's output
// and input gradient, and the weight gradient accumulated over the chunk.
type convResult struct {
	out, dx [][]float32
	dw      []float32
}

// stale fills a result buffer with a value no product comes to, so an element
// the code under test fails to write shows up.
func stale(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = -12345
	}
	return s
}

// convIm2Col runs the chunk through Im2Col+Gemm+Col2Im, call for call what
// nn.Conv2D did before ConvPack: the reference ConvPack is held to.
func convIm2Col(g convGeom, weights []float32, xs, gs [][]float32) convResult {
	outH, outW := g.outSize()
	k, n := g.inC*g.kh*g.kw, outH*outW
	cols, gradCols := stale(k*n), stale(k*n)
	r := convResult{dw: make([]float32, g.outC*k)}
	for i, x := range xs {
		out := stale(g.outC * n)
		convref.Im2Col(x, g.inC, g.h, g.w, g.kh, g.kw, g.sH, g.sW, g.padH, g.padW, cols)
		Gemm(false, false, g.outC, n, k, 1, weights, cols, 0, out)
		r.out = append(r.out, out)

		Gemm(false, true, g.outC, k, n, 1, gs[i], cols, 1, r.dw)
		Gemm(true, false, k, n, g.outC, 1, weights, gs[i], 0, gradCols)
		dx := make([]float32, g.inC*g.h*g.w)
		convref.Col2Im(gradCols, g.inC, g.h, g.w, g.kh, g.kw, g.sH, g.sW, g.padH, g.padW, dx)
		r.dx = append(r.dx, dx)
	}
	return r
}

// convPacked runs the chunk through ConvPack the way nn.Conv2D does: pack
// buffers zeroed once and reused for every image, the chunk's first weight
// gradient stored over whatever the partial held and the rest added.
func convPacked(g convGeom, weights []float32, xs, gs [][]float32) convResult {
	p := NewConvPack(g.inC, g.outC, g.h, g.w, g.kh, g.kw, g.sH, g.sW, g.padH, g.padW)
	xpack := make([]float32, p.InputPackLen())
	gpack := make([]float32, p.GradOutPackLen())
	r := convResult{dw: stale(len(weights))}
	for i, x := range xs {
		out := stale(g.outC * p.OutH * p.OutW)
		p.PackInput(xpack, x)
		p.Forward(weights, xpack, out)
		r.out = append(r.out, out)

		p.GradWeight(gs[i], xpack, r.dw, i > 0)
		dx := stale(g.inC * g.h * g.w)
		p.PackGradOut(gpack, gs[i])
		p.GradInput(weights, gpack, dx)
		r.dx = append(r.dx, dx)
	}
	return r
}

// diffConv compares the two lowerings of one chunk. With finite weights every
// output, dW and dX element must match bit for bit (eq decides what a match
// is). With non-finite weights the input gradient is held to less: the packed
// path multiplies the padding zeros Col2Im skips, so it may be NaN where the
// reference is not — but never finite where the reference is not, and equal
// wherever it is finite.
func diffConv(g convGeom, weights []float32, xs, gs [][]float32, eq func(x, y float32) bool) error {
	want, got := convIm2Col(g, weights, xs, gs), convPacked(g, weights, xs, gs)
	finiteWeights := true
	for _, v := range weights {
		finiteWeights = finiteWeights && finite(v)
	}
	for i := range xs {
		for j := range want.out[i] {
			if !eq(got.out[i][j], want.out[i][j]) {
				return fmt.Errorf("%v image %d: out[%d] = %v (%08x), im2col path %v (%08x)", g, i, j,
					got.out[i][j], math.Float32bits(got.out[i][j]), want.out[i][j], math.Float32bits(want.out[i][j]))
			}
		}
		for j := range want.dx[i] {
			a, b := got.dx[i][j], want.dx[i][j]
			if finiteWeights || finite(a) {
				if !eq(a, b) {
					return fmt.Errorf("%v image %d: dX[%d] = %v (%08x), im2col path %v (%08x)", g, i, j, a, math.Float32bits(a), b, math.Float32bits(b))
				}
			}
		}
	}
	for j := range want.dw {
		if !eq(got.dw[j], want.dw[j]) {
			return fmt.Errorf("%v: dW[%d] = %v (%08x), im2col path %v (%08x)", g, j,
				got.dw[j], math.Float32bits(got.dw[j]), want.dw[j], math.Float32bits(want.dw[j]))
		}
	}
	return nil
}

func exactBits(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }

// convOperand draws n finite values of the classes the order argument turns
// on: zeros of both signs (the skip, the sums that must come to +0 and not
// -0), denormals, and ordinary magnitudes over several binades; halfZero
// makes every other draw an exact zero.
func convOperand(rng *rand.Rand, n int, halfZero bool) []float32 {
	s := packedSlice(rng, n)
	for i := range s {
		switch {
		case halfZero && rng.Intn(2) == 0:
			s[i] = 0
		case rng.Intn(16) == 0:
			s[i] = math.Float32frombits(uint32(rng.Intn(1<<23))) * float32(1-2*rng.Intn(2)) // denormal
		}
	}
	return s
}

func convOperands(rng *rand.Rand, g convGeom, images int, halfZero bool) (weights []float32, xs, gs [][]float32) {
	outH, outW := g.outSize()
	weights = convOperand(rng, g.outC*g.inC*g.kh*g.kw, halfZero)
	for i := 0; i < images; i++ {
		xs = append(xs, convOperand(rng, g.inC*g.h*g.w, halfZero))
		gs = append(gs, convOperand(rng, g.outC*outH*outW, halfZero))
	}
	return weights, xs, gs
}

// TestConvPackedMatchesIm2Col is the small-scope exhaustive differential:
// every kernel 1/3/5 squared-or-not, padding 0..2, image 1..9 on each side,
// strides 1..3 on each axis (asymmetric pairs, strides wider than the kernel
// and sizes the stride does not divide included), channel counts on both
// sides of a vector of lanes — forward, the weight gradient over a two-image
// chunk and the input gradient, bit for bit. Stride 1×1 runs every channel
// pair on every geometry; the other eight stride pairs, where the channel
// counts reach nothing stride 1×1 does not, walk the channel pairs round-robin.
func TestConvPackedMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if testing.Short() {
		sizes = []int{1, 2, 4, 8, 9}
	}
	inCs, outCs := []int{1, 3, 8, 9, 16}, []int{1, 4, 6, 8}
	count, strided := 0, 0
	run := func(g convGeom) {
		if !g.hasOutput() {
			return
		}
		weights, xs, gs := convOperands(rng, g, 2, count%3 == 0)
		if err := diffConv(g, weights, xs, gs, exactBits); err != nil {
			t.Fatal(err)
		}
		count++
	}
	for _, kh := range []int{1, 3, 5} {
		for _, kw := range []int{1, 3, 5} {
			for _, pad := range []int{0, 1, 2} {
				for _, h := range sizes {
					for _, w := range sizes {
						for _, inC := range inCs {
							for _, outC := range outCs {
								run(convGeom{inC, outC, h, w, kh, kw, 1, 1, pad, pad})
							}
						}
						for s := 1; s < 9; s++ {
							inC, outC := inCs[strided%len(inCs)], outCs[strided/len(inCs)%len(outCs)]
							run(convGeom{inC, outC, h, w, kh, kw, 1 + s/3, 1 + s%3, pad, pad})
							strided++
						}
					}
				}
			}
		}
	}
	if count == 0 {
		t.Fatal("no geometry ran")
	}
}

// TestConvPackedShapes covers what the exhaustive scope cannot reach: the
// training shapes (every column block of the axpy, a 4-row dot tile), mixed
// padding, and products large enough to spread over the pool.
func TestConvPackedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	geoms := []convGeom{
		{16, 16, 16, 16, 3, 3, 1, 1, 1, 1},
		{32, 32, 8, 8, 3, 3, 1, 1, 1, 1},
		{64, 64, 4, 4, 3, 3, 1, 1, 1, 1},
		{3, 16, 16, 16, 3, 3, 1, 1, 1, 1},
		{3, 6, 16, 16, 3, 3, 1, 1, 1, 1},
		{8, 16, 12, 12, 3, 3, 1, 1, 1, 1},
		{5, 7, 11, 13, 3, 5, 1, 1, 0, 2},
		{2, 3, 23, 10, 5, 1, 1, 1, 2, 0},
		{4, 5, 9, 21, 1, 3, 1, 1, 1, 1},
		{12, 10, 7, 9, 7, 7, 1, 1, 3, 3},
		{24, 40, 30, 34, 3, 3, 1, 1, 1, 1}, // 8.8 M multiply-adds a product: tiled
		// The strided layers of TinyResNet, the ResNet-50 stem cut to 32×32,
		// sizes the stride does not divide, asymmetric strides, and a strided
		// product large enough to tile.
		{16, 32, 16, 16, 3, 3, 2, 2, 1, 1},
		{32, 64, 8, 8, 3, 3, 2, 2, 1, 1},
		{16, 32, 16, 16, 1, 1, 2, 2, 0, 0},
		{32, 64, 8, 8, 1, 1, 2, 2, 0, 0},
		{3, 16, 32, 32, 7, 7, 2, 2, 3, 3},
		{5, 7, 15, 13, 3, 3, 2, 2, 1, 1},
		{6, 9, 17, 22, 5, 3, 3, 2, 2, 0},
		{4, 6, 20, 11, 3, 5, 1, 3, 1, 2},
		{8, 8, 13, 13, 2, 2, 4, 3, 0, 1},
		{24, 40, 61, 67, 3, 3, 2, 2, 1, 1},
	}
	for _, workers := range []int{1, 3} {
		prev := kernels.SetWorkers(workers)
		for _, g := range geoms {
			weights, xs, gs := convOperands(rng, g, 2, false)
			if err := diffConv(g, weights, xs, gs, exactBits); err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
		}
		kernels.SetWorkers(prev)
	}
}

// TestConvPackedNonFinite: padding is an explicit zero that gets multiplied,
// so an infinite or NaN weight poisons the same outputs and dW elements on
// both paths (dX is held to diffConv's one-sided rule); and a zero weight is
// skipped, not multiplied, so an infinite or NaN activation or gradient
// poisons exactly what it poisons on the reference.
func TestConvPackedNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, g := range []convGeom{
		{3, 4, 5, 5, 3, 3, 1, 1, 1, 1}, {8, 6, 4, 7, 3, 3, 1, 1, 1, 1}, {9, 8, 6, 3, 5, 5, 1, 1, 2, 2}, {2, 3, 4, 4, 1, 1, 1, 1, 1, 1}, {16, 4, 9, 9, 3, 1, 1, 1, 0, 0},
		{3, 4, 9, 8, 3, 3, 2, 2, 1, 1}, {8, 6, 7, 7, 1, 1, 2, 2, 0, 0}, {5, 8, 10, 9, 5, 3, 3, 2, 2, 1},
	} {
		for trial := 0; trial < 20; trial++ {
			weights, xs, gs := convOperands(rng, g, 2, trial%2 == 0)
			poisoned := [][]float32{weights}
			if trial%4 >= 2 {
				poisoned = append(xs, gs...)
			}
			for _, s := range poisoned {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					s[rng.Intn(len(s))] = specials[rng.Intn(len(specials))]
				}
			}
			if err := diffConv(g, weights, xs, gs, sameBits); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPackInputKeepsPaddingRows: the pack's padding rows are the caller's
// zeros and packing never touches them, which is what lets a layer zero them
// once per geometry.
func TestPackInputKeepsPaddingRows(t *testing.T) {
	p := NewConvPack(2, 1, 3, 4, 3, 3, 1, 1, 1, 1)
	pack := stale(p.InputPackLen())
	x := make([]float32, 2*3*4)
	for i := range x {
		x[i] = float32(i + 1)
	}
	p.PackInput(pack, x)
	rows := 3 + 2
	for cp := 0; cp < 2*3; cp++ {
		for r := 0; r < rows; r++ {
			for j := 0; j < 4; j++ {
				v := pack[(cp*rows+r)*4+j]
				if pad := r == 0 || r == rows-1; pad != (v == -12345) {
					t.Fatalf("copy %d row %d col %d = %v: padding rows must be left alone and image rows written", cp, r, j, v)
				}
			}
		}
	}
	// Copy kx=0 of channel 0, first image row: shifted right by one, zero edge.
	if got := pack[1*4 : 2*4]; got[0] != 0 || got[1] != 1 || got[3] != 3 {
		t.Fatalf("copy 0 row 1 = %v, want [0 1 2 3]", got)
	}
	// Copy kx=2, last image row of channel 1: shifted left, zero edge.
	if got := pack[((5*rows)+3)*4 : ((5*rows)+4)*4]; got[0] != 22 || got[2] != 24 || got[3] != 0 {
		t.Fatalf("copy 5 row 3 = %v, want [22 23 24 0]", got)
	}
}

// TestPackWindowsAreIm2ColRows states the layout directly: at any stride the
// window of outH·outW floats at tapOffs[p] is row p of the column matrix.
func TestPackWindowsAreIm2ColRows(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, g := range []convGeom{
		{2, 1, 5, 6, 3, 3, 1, 1, 1, 1}, {3, 1, 8, 8, 3, 3, 2, 2, 1, 1}, {2, 1, 9, 7, 1, 1, 2, 2, 0, 0},
		{1, 1, 11, 10, 7, 7, 2, 2, 3, 3}, {2, 1, 10, 9, 5, 2, 3, 2, 2, 0}, {2, 1, 7, 12, 2, 3, 4, 1, 0, 1},
	} {
		p := NewConvPack(g.inC, g.outC, g.h, g.w, g.kh, g.kw, g.sH, g.sW, g.padH, g.padW)
		x := packedSlice(rng, g.inC*g.h*g.w)
		pack := make([]float32, p.InputPackLen())
		p.PackInput(pack, x)
		n := p.OutH * p.OutW
		cols := stale(len(p.tapOffs) * n)
		convref.Im2Col(x, g.inC, g.h, g.w, g.kh, g.kw, g.sH, g.sW, g.padH, g.padW, cols)
		for tap, off := range p.tapOffs {
			for j, v := range pack[off : off+n] {
				if !exactBits(v, cols[tap*n+j]) {
					t.Fatalf("%v: tap %d window[%d] = %v, column matrix %v", g, tap, j, v, cols[tap*n+j])
				}
			}
		}
	}
}

// FuzzConvPackedMatchesIm2Col lets the fuzzer pick the geometry, strides
// included, and the raw bits of every operand element (cycled from the input,
// so non-finite values and signalling patterns included) and holds ConvPack
// to Im2Col+Gemm+Col2Im.
func FuzzConvPackedMatchesIm2Col(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), uint8(5), uint8(3), uint8(3), uint8(0), uint8(0), uint8(1), uint8(1), []byte{0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, inC, outC, h, w, kh, kw, sH, sW, padH, padW uint8, data []byte) {
		g := convGeom{1 + int(inC%33), 1 + int(outC%64), 1 + int(h%17), 1 + int(w%17), 1 + int(kh%7), 1 + int(kw%7), 1 + int(sH%4), 1 + int(sW%4), int(padH % 4), int(padW % 4)}
		if !g.hasOutput() {
			t.Skip()
		}
		at := 0
		fill := func(n int) []float32 {
			s := make([]float32, n+1)
			for i := range s {
				if len(data) < 4 {
					s[i] = float32(at%5) - 2
				} else {
					var b [4]byte
					for j := range b {
						b[j] = data[(4*at+j)%len(data)]
					}
					s[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
				}
				at++
			}
			return s[1:] // off vector alignment
		}
		outH, outW := g.outSize()
		weights := fill(g.outC * g.inC * g.kh * g.kw)
		xs := [][]float32{fill(g.inC * g.h * g.w), fill(g.inC * g.h * g.w)}
		gs := [][]float32{fill(g.outC * outH * outW), fill(g.outC * outH * outW)}
		if err := diffConv(g, weights, xs, gs, sameBits); err != nil {
			t.Fatal(err)
		}
	})
}
