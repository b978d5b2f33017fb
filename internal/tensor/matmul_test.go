package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference implementation the optimized kernel is checked
// against: straightforward triple loop in float64.
func naiveGemm(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				var av, bv float32
				if transA {
					av = a[p*m+i]
				} else {
					av = a[i*k+p]
				}
				if transB {
					bv = b[j*k+p]
				} else {
					bv = b[p*n+j]
				}
				s += float64(av) * float64(bv)
			}
			out[i*n+j] = float64(alpha)*s + float64(beta)*float64(c[i*n+j])
		}
	}
	for i := range out {
		c[i] = float32(out[i])
	}
}

func randBuf(g *RNG, n int) []float32 {
	b := make([]float32, n)
	for i := range b {
		b[i] = g.Float32()*2 - 1
	}
	return b
}

func TestMatMulSmallKnown(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := MustFromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !c.ApproxEqual(want, 1e-5) {
		t.Fatalf("got %v want %v", c.Data, want.Data)
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("inner-dim mismatch should error")
	}
	if _, err := MatMul(New(6), b); err == nil {
		t.Fatal("1-D operand should error")
	}
}

func TestGemmAllTransposeVariants(t *testing.T) {
	g := NewRNG(7)
	const m, n, k = 9, 11, 13
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			a := randBuf(g, m*k)
			b := randBuf(g, k*n)
			cGot := randBuf(g, m*n)
			cWant := append([]float32(nil), cGot...)
			Gemm(ta, tb, m, n, k, 1.5, a, b, 0.5, cGot)
			naiveGemm(ta, tb, m, n, k, 1.5, a, b, 0.5, cWant)
			for i := range cGot {
				if d := math.Abs(float64(cGot[i] - cWant[i])); d > 1e-4 {
					t.Fatalf("transA=%v transB=%v: c[%d] = %v, want %v", ta, tb, i, cGot[i], cWant[i])
				}
			}
		}
	}
}

func TestGemmParallelMatchesSerial(t *testing.T) {
	// Large enough to trigger the parallel path.
	g := NewRNG(11)
	const m, n, k = 257, 129, 65
	a := randBuf(g, m*k)
	b := randBuf(g, k*n)
	got := make([]float32, m*n)
	want := make([]float32, m*n)
	Gemm(false, false, m, n, k, 1, a, b, 0, got)
	naiveGemm(false, false, m, n, k, 1, a, b, 0, want)
	for i := range got {
		if d := math.Abs(float64(got[i] - want[i])); d > 1e-3 {
			t.Fatalf("c[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestGemmBetaAccumulate(t *testing.T) {
	a := []float32{1, 0, 0, 1} // identity 2x2
	b := []float32{5, 6, 7, 8}
	c := []float32{1, 1, 1, 1}
	Gemm(false, false, 2, 2, 2, 1, a, b, 1, c) // c += a*b
	want := []float32{6, 7, 8, 9}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestGemmAlphaZeroOnlyScales(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{1, 2, 3, 4}
	c := []float32{2, 4, 6, 8}
	Gemm(false, false, 2, 2, 2, 0, a, b, 0.5, c)
	want := []float32{1, 2, 3, 4}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestGemmZeroDims(t *testing.T) {
	// Must not panic and must leave c untouched for m or n == 0.
	Gemm(false, false, 0, 4, 3, 1, nil, make([]float32, 12), 0, nil)
	c := []float32{1, 2}
	Gemm(false, false, 1, 2, 0, 1, nil, nil, 0, c)
	if c[0] != 0 || c[1] != 0 {
		t.Fatal("k=0 with beta=0 should zero c")
	}
}

// Property: (A·B)ᵀ computed via Gemm equals Bᵀ·Aᵀ via transpose flags.
func TestPropGemmTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		m, n, k := 1+g.Intn(8), 1+g.Intn(8), 1+g.Intn(8)
		a := randBuf(g, m*k)
		b := randBuf(g, k*n)
		ab := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1, a, b, 0, ab)
		// Compute Bᵀ·Aᵀ: dims (n×k)·(k×m) = n×m, using trans flags over the
		// same storage.
		btat := make([]float32, n*m)
		Gemm(true, true, n, m, k, 1, b, a, 0, btat)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(float64(ab[i*n+j]-btat[j*m+i])) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGemm128(b *testing.B) {
	g := NewRNG(1)
	const n = 128
	x := randBuf(g, n*n)
	y := randBuf(g, n*n)
	z := make([]float32, n*n)
	b.SetBytes(int64(n * n * n * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(false, false, n, n, n, 1, x, y, 0, z)
	}
}

// TestGemmShortOperandPanics: an operand shorter than its dimensions say
// must panic on every kernel — the SIMD kernels work from raw pointers, so
// the check is theirs to make — never read or write past a slice's end.
func TestGemmShortOperandPanics(t *testing.T) {
	const m, n, k = 5, 9, 7
	for _, short := range []string{"a", "b", "c"} {
		for _, transB := range []bool{false, true} {
			a, b, c := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
			for i := range a {
				a[i] = 1 // a zero would let the axpy loops skip the short row of B
			}
			switch short {
			case "a":
				a = a[: len(a)-1 : len(a)-1]
			case "b":
				b = b[: len(b)-1 : len(b)-1]
			default:
				c = c[: len(c)-1 : len(c)-1]
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("short %s, transB %v: Gemm did not panic", short, transB)
					}
				}()
				Gemm(false, transB, m, n, k, 1, a, b, 0, c)
			}()
		}
	}
}
