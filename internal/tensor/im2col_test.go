package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor/convref"
)

// naiveConv computes a direct convolution for one image, used as the oracle
// for the im2col+GEMM lowering.
func naiveConv(src []float32, c, h, w, kh, kw, sh, sw, ph, pw int, weights []float32, outC int) []float32 {
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(w, kw, sw, pw)
	out := make([]float32, outC*oh*ow)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float64
				for ic := 0; ic < c; ic++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy := oy*sh - ph + ky
							ix := ox*sw - pw + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							wv := weights[((oc*c+ic)*kh+ky)*kw+kx]
							s += float64(wv) * float64(src[(ic*h+iy)*w+ix])
						}
					}
				}
				out[(oc*oh+oy)*ow+ox] = float32(s)
			}
		}
	}
	return out
}

func TestIm2ColGemmMatchesDirectConv(t *testing.T) {
	g := NewRNG(3)
	cases := []struct{ c, h, w, kh, kw, sh, sw, ph, pw, outC int }{
		{1, 5, 5, 3, 3, 1, 1, 1, 1, 2},
		{3, 8, 8, 3, 3, 2, 2, 1, 1, 4},
		{2, 7, 9, 5, 3, 2, 1, 2, 0, 3},
		{4, 6, 6, 1, 1, 1, 1, 0, 0, 8},
		{3, 11, 11, 7, 7, 2, 2, 3, 3, 2},
	}
	for _, tc := range cases {
		src := randBuf(g, tc.c*tc.h*tc.w)
		weights := randBuf(g, tc.outC*tc.c*tc.kh*tc.kw)
		oh := ConvOutSize(tc.h, tc.kh, tc.sh, tc.ph)
		ow := ConvOutSize(tc.w, tc.kw, tc.sw, tc.pw)
		cols := make([]float32, tc.c*tc.kh*tc.kw*oh*ow)
		gotOH, gotOW := convref.Im2Col(src, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.sh, tc.sw, tc.ph, tc.pw, cols)
		if gotOH != oh || gotOW != ow {
			t.Fatalf("%+v: out size %dx%d, want %dx%d", tc, gotOH, gotOW, oh, ow)
		}
		out := make([]float32, tc.outC*oh*ow)
		Gemm(false, false, tc.outC, oh*ow, tc.c*tc.kh*tc.kw, 1, weights, cols, 0, out)
		want := naiveConv(src, tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.sh, tc.sw, tc.ph, tc.pw, weights, tc.outC)
		for i := range out {
			if math.Abs(float64(out[i]-want[i])) > 1e-4 {
				t.Fatalf("%+v: out[%d] = %v, want %v", tc, i, out[i], want[i])
			}
		}
	}
}

// Property: Col2Im is the exact adjoint of Im2Col, i.e. for random x and y:
// <Im2Col(x), y> == <x, Col2Im(y)>. This is the identity conv-backward
// relies on.
func TestPropCol2ImAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		c := 1 + g.Intn(3)
		h := 3 + g.Intn(6)
		w := 3 + g.Intn(6)
		kh := 1 + g.Intn(3)
		kw := 1 + g.Intn(3)
		sh := 1 + g.Intn(2)
		sw := 1 + g.Intn(2)
		ph := g.Intn(2)
		pw := g.Intn(2)
		if kh > h+2*ph || kw > w+2*pw {
			return true
		}
		oh := ConvOutSize(h, kh, sh, ph)
		ow := ConvOutSize(w, kw, sw, pw)
		if oh <= 0 || ow <= 0 {
			return true
		}
		rows := c * kh * kw
		x := randBuf(g, c*h*w)
		y := randBuf(g, rows*oh*ow)

		cx := make([]float32, rows*oh*ow)
		convref.Im2Col(x, c, h, w, kh, kw, sh, sw, ph, pw, cx)
		var lhs float64
		for i := range cx {
			lhs += float64(cx[i]) * float64(y[i])
		}

		xg := make([]float32, c*h*w)
		convref.Col2Im(y, c, h, w, kh, kw, sh, sw, ph, pw, xg)
		var rhs float64
		for i := range xg {
			rhs += float64(x[i]) * float64(xg[i])
		}
		return math.Abs(lhs-rhs) < 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConvOutSize(t *testing.T) {
	if got := ConvOutSize(224, 7, 2, 3); got != 112 {
		t.Fatalf("ResNet stem out = %d, want 112", got)
	}
	if got := ConvOutSize(56, 3, 1, 1); got != 56 {
		t.Fatalf("same-pad 3x3 out = %d, want 56", got)
	}
	if got := ConvOutSize(56, 1, 2, 0); got != 28 {
		t.Fatalf("1x1 stride-2 out = %d, want 28", got)
	}
	// A kernel larger than the padded input has no output; integer division
	// truncating toward zero must not turn -1/2 into a window.
	for _, tc := range []struct{ in, kernel, stride, pad int }{
		{2, 3, 2, 0}, {1, 3, 1, 0}, {1, 5, 1, 1}, {4, 7, 3, 1},
	} {
		if got := ConvOutSize(tc.in, tc.kernel, tc.stride, tc.pad); got != 0 {
			t.Fatalf("ConvOutSize(%d, %d, %d, %d) = %d, want 0", tc.in, tc.kernel, tc.stride, tc.pad, got)
		}
	}
	if got := ConvOutSize(1, 3, 2, 1); got != 1 {
		t.Fatalf("kernel exactly filling the padded input out = %d, want 1", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float32() != b.Float32() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float32() != c.Float32() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical stream")
	}
}

func TestFillKaimingStats(t *testing.T) {
	g := NewRNG(5)
	x := New(20000)
	g.FillKaiming(x, 200)
	mean := x.Mean()
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Kaiming mean = %v, want ~0", mean)
	}
	var varSum float64
	for _, v := range x.Data {
		varSum += float64(v) * float64(v)
	}
	variance := varSum / float64(x.Len())
	want := 2.0 / 200
	if math.Abs(variance-want)/want > 0.1 {
		t.Fatalf("Kaiming variance = %v, want ~%v", variance, want)
	}
}

func TestFillUniformRange(t *testing.T) {
	g := NewRNG(6)
	x := New(1000)
	g.FillUniform(x, -2, 3)
	for _, v := range x.Data {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform value %v outside [-2,3)", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(9)
	p := g.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm not a permutation at %d", v)
		}
		seen[v] = true
	}
}

// TestIm2ColCol2ImMatchPerTapReference holds both lowerings to a
// one-tap-at-a-time reference, exactly, over geometries that put the
// unit-stride run's edges everywhere: no padding, padding wider than the
// kernel, kernels wider than the padded input's interior, strides 1 and 2.
func TestIm2ColCol2ImMatchPerTapReference(t *testing.T) {
	g := NewRNG(17)
	for _, w := range []int{1, 2, 5, 9} {
		for _, kw := range []int{1, 2, 3, 6} {
			for _, pw := range []int{0, 1, 3} {
				for _, sw := range []int{1, 2} {
					const c, h, kh, sh, ph = 2, 4, 3, 1, 1
					if w+2*pw < kw {
						continue
					}
					oh, ow := ConvOutSize(h, kh, sh, ph), ConvOutSize(w, kw, sw, pw)
					src := randBuf(g, c*h*w)
					cols := randBuf(g, c*kh*kw*oh*ow) // stale contents must be overwritten
					wantCols := make([]float32, len(cols))
					grad := randBuf(g, len(cols))
					img := randBuf(g, c*h*w)
					wantImg := append([]float32(nil), img...)
					row := 0
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								for oy := 0; oy < oh; oy++ {
									for ox := 0; ox < ow; ox++ {
										iy, ix := oy*sh-ph+ky, ox*sw-pw+kx
										if iy < 0 || iy >= h || ix < 0 || ix >= w {
											continue
										}
										wantCols[(row*oh+oy)*ow+ox] = src[(ch*h+iy)*w+ix]
										wantImg[(ch*h+iy)*w+ix] += grad[(row*oh+oy)*ow+ox]
									}
								}
								row++
							}
						}
					}
					convref.Im2Col(src, c, h, w, kh, kw, sh, sw, ph, pw, cols)
					convref.Col2Im(grad, c, h, w, kh, kw, sh, sw, ph, pw, img)
					for i := range cols {
						if cols[i] != wantCols[i] {
							t.Fatalf("w%d kw%d pw%d sw%d: Im2Col[%d] = %v, want %v", w, kw, pw, sw, i, cols[i], wantCols[i])
						}
					}
					for i := range img {
						if math.Float32bits(img[i]) != math.Float32bits(wantImg[i]) {
							t.Fatalf("w%d kw%d pw%d sw%d: Col2Im[%d] = %v, want %v", w, kw, pw, sw, i, img[i], wantImg[i])
						}
					}
				}
			}
		}
	}
}
