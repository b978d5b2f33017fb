package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kernels"
)

// packedSlice fills test operands with adversarial values for the GEMM
// kernels: exact zeros (the axpy skip path), negative zeros (the
// 0 + alpha*s store rule), and mixed-sign magnitudes spanning several
// binades (so accumulation order differences cannot cancel out).
func packedSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = float32(math.Copysign(0, -1))
		case 2:
			s[i] = (rng.Float32()*2 - 1) * 1e-4
		default:
			s[i] = (rng.Float32()*2 - 1) * float32(math.Pow(2, float64(rng.Intn(8)-4)))
		}
	}
	return s
}

// TestGemmPackedBitwiseSweep pins Gemm against the serial reference over a
// randomized shape sweep — odd dimensions, m < 4, n < 4, k ∈ {0, 1},
// alpha/beta edge cases, ±0 operands — bitwise, at worker widths
// 1/2/GOMAXPROCS+3, for all four transpose cases. (Named for the packed
// microkernel path it was written to pin; that path is gone and the sweep
// now holds whichever kernel gemmTile selects to the same reference.)
func TestGemmPackedBitwiseSweep(t *testing.T) {
	widths := []int{1, 2, runtime.GOMAXPROCS(0) + 3}
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},
		{3, 3, 3},
		{4, 4, 1},   // k=1
		{5, 7, 9},   // odd everything
		{4, 4, 0},   // k = 0: pure beta pass
		{2, 37, 11}, // m < 4: single-row dot kernel only
		{23, 2, 13}, // n < 8: narrower than one vector of outputs
		{8, 8, 64},  // aligned, deep k
		{13, 29, 7},
		{31, 17, 25},
		{9, 65, 3},
	}
	rng := rand.New(rand.NewSource(11))
	for s := 0; s < 8; s++ { // extra randomized shapes
		shapes = append(shapes, struct{ m, n, k int }{rng.Intn(40) + 1, rng.Intn(40) + 1, rng.Intn(40) + 1})
	}
	cases := []struct{ alpha, beta float32 }{
		{1, 0}, {1, 1}, {-0.5, 0.25}, {0.75, -1}, {0, 0.5},
	}
	for _, sh := range shapes {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				for _, ab := range cases {
					a := packedSlice(rng, sh.m*sh.k)
					b := packedSlice(rng, sh.k*sh.n)
					c0 := packedSlice(rng, sh.m*sh.n)

					want := append([]float32(nil), c0...)
					gemmSerial(transA, transB, sh.m, sh.n, sh.k, ab.alpha, a, b, ab.beta, want)

					for _, w := range widths {
						prev := kernels.SetWorkers(w)
						got := append([]float32(nil), c0...)
						Gemm(transA, transB, sh.m, sh.n, sh.k, ab.alpha, a, b, ab.beta, got)
						kernels.SetWorkers(prev)
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("m%d n%d k%d tA%v tB%v alpha%v beta%v width %d: elem %d = %v (bits %x), want %v (bits %x)",
									sh.m, sh.n, sh.k, transA, transB, ab.alpha, ab.beta, w, i,
									got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmPackedLargeRouting checks a product big enough to be split into
// tiles (over minFlopsPerTile): the result must still match the serial
// reference exactly at several worker widths, which would fail if tiling
// broke the per-element operation order.
func TestGemmPackedLargeRouting(t *testing.T) {
	m, n, k := 96, 160, 144 // 2.2 M multiply-adds ≥ minFlopsPerTile
	if m*n*k < minFlopsPerTile {
		t.Fatalf("shape %dx%dx%d below minFlopsPerTile %d: test no longer exercises tiling", m, n, k, minFlopsPerTile)
	}
	rng := rand.New(rand.NewSource(13))
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			a := packedSlice(rng, m*k)
			b := packedSlice(rng, k*n)
			c0 := packedSlice(rng, m*n)

			want := append([]float32(nil), c0...)
			gemmSerial(transA, transB, m, n, k, 0.5, a, b, 0.25, want)

			for _, w := range []int{1, runtime.GOMAXPROCS(0) + 3} {
				prev := kernels.SetWorkers(w)
				got := append([]float32(nil), c0...)
				Gemm(transA, transB, m, n, k, 0.5, a, b, 0.25, got)
				kernels.SetWorkers(prev)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("tA%v tB%v width %d: elem %d = %v, want %v", transA, transB, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGemmStoreNeverReadsC pins the beta-0 contract of the axpy (!transB)
// kernels: C is written, never read. C arrives full of NaN — one read of it
// poisons the result — at widths that end in every column block of the AVX2
// kernel (64, 32, 16, 8, masked remainder) and at the three weight-gradient
// shapes of the wide MLP (op(A) = gᵀ, k = batch 4). Some op(A) rows are all
// zero, so every product of those C rows takes the `s == 0` skip: they must
// come back +0, not as found. Bitwise against the serial reference, at one
// worker and at a width that tiles the larger products.
func TestGemmStoreNeverReadsC(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{3, 64, 4}, {3, 96, 5}, {2, 48, 3}, {5, 24, 4}, {4, 8, 2}, {3, 71, 4}, {6, 13, 7}, {2, 5, 1},
		{384, 768, 4}, {256, 384, 4}, {8, 256, 4},
	}
	nan := float32(math.NaN())
	rng := rand.New(rand.NewSource(17))
	for _, sh := range shapes {
		for _, transA := range []bool{false, true} {
			a := packedSlice(rng, sh.m*sh.k)
			b := packedSlice(rng, sh.k*sh.n)
			for i := 0; i < sh.m; i += 2 { // op(A) rows 0, 2, 4, …: all zero, of both signs
				for p := 0; p < sh.k; p++ {
					z := float32(math.Copysign(0, float64(1-2*(p%2))))
					if transA {
						a[p*sh.m+i] = z
					} else {
						a[i*sh.k+p] = z
					}
				}
			}
			want := make([]float32, sh.m*sh.n)
			gemmSerial(transA, false, sh.m, sh.n, sh.k, 1, a, b, 0, want)
			for _, w := range []int{1, 3} {
				prev := kernels.SetWorkers(w)
				got := make([]float32, sh.m*sh.n)
				for i := range got {
					got[i] = nan
				}
				Gemm(transA, false, sh.m, sh.n, sh.k, 1, a, b, 0, got)
				kernels.SetWorkers(prev)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("m%d n%d k%d tA%v width %d: C[%d] = %v (bits %x), want %v (bits %x)",
							sh.m, sh.n, sh.k, transA, w, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
				for j := 0; j < sh.n; j++ {
					if bits := math.Float32bits(got[j]); bits != 0 {
						t.Fatalf("m%d n%d k%d tA%v width %d: all-zero op(A) row 0 stored bits %x at column %d, want +0", sh.m, sh.n, sh.k, transA, w, bits, j)
					}
				}
			}
		}
	}
}
