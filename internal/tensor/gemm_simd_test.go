//go:build amd64 && !purego

package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernels"
)

// hostileValue draws from every float32 class the bitwise contract names:
// exact zeros of both signs (the axpy skip, the 0 + alpha*sum store), NaN,
// both infinities, denormals, magnitudes whose products overflow, and
// ordinary values spread over several binades.
func hostileValue(rng *rand.Rand) float32 {
	switch rng.Intn(16) {
	case 0, 1:
		return 0
	case 2:
		return float32(math.Copysign(0, -1))
	case 3:
		return float32(math.NaN())
	case 4:
		return float32(math.Inf(1))
	case 5:
		return float32(math.Inf(-1))
	case 6:
		return math.Float32frombits(uint32(rng.Intn(1<<23))) * float32(1-2*rng.Intn(2)) // denormal
	case 7:
		return (rng.Float32()*2 - 1) * 3e38
	default:
		return (rng.Float32()*2 - 1) * float32(math.Pow(2, float64(rng.Intn(12)-6)))
	}
}

// hostileSlice returns n values at an odd offset into a longer backing
// array, so the kernels see operands that are not vector-aligned; hostile
// selects hostileValue over packedSlice's finite mix.
func hostileSlice(rng *rand.Rand, n int, hostile bool) []float32 {
	off := 1 + rng.Intn(7)
	buf := make([]float32, off+n)
	if hostile {
		for i := range buf {
			buf[i] = hostileValue(rng)
		}
	} else {
		copy(buf, packedSlice(rng, len(buf)))
	}
	return buf[off : off+n : off+n]
}

// gemmBothKernels runs one product through Gemm twice — on the AVX2 kernels
// and, with the kernels.UseAVX2 switch turned off around the call, on the pure-Go
// ones — and returns the first mismatching index of C, or noMismatch. C sits
// inside a longer array whose margins (indices outside C) must come back
// untouched: a masked store that strays outside its tile shows up there.
func gemmBothKernels(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c0 []float32) int {
	const margin = 9
	run := func(simd bool) []float32 {
		buf := make([]float32, margin+len(c0)+margin)
		for i := range buf {
			buf[i] = -12345
		}
		copy(buf[margin:], c0)
		kernels.UseAVX2 = simd
		defer func() { kernels.UseAVX2 = true }()
		Gemm(transA, transB, m, n, k, alpha, a, b, beta, buf[margin:margin+len(c0)])
		return buf
	}
	got, want := run(true), run(false)
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return i - margin
		}
	}
	return noMismatch
}

const noMismatch = math.MinInt

var simdCoefs = []float32{0, 1, -0.75}

// TestGemmSIMDMatchesPortable sweeps the AVX2 kernels against the pure-Go
// loops: all four transpose cases × alpha, beta ∈ {0, 1, other}, each
// dimension through every length 0..70 (every block width, every masked
// remainder, every k%4) while the other two sit at odd sizes, random odd
// shapes, unaligned operands, hostile values — at one worker and at a width
// that splits the larger products into tiles.
func TestGemmSIMDMatchesPortable(t *testing.T) {
	if !kernels.UseAVX2 {
		t.Skip("no AVX2 on this machine: Gemm already runs the portable kernels")
	}
	type shape struct{ m, n, k int }
	var shapes []shape
	for l := 0; l <= 70; l++ {
		shapes = append(shapes, shape{l, 13, 9}, shape{5, l, 11}, shape{7, 19, l})
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 40; i++ {
		shapes = append(shapes, shape{2*rng.Intn(35) + 1, 2*rng.Intn(35) + 1, 2*rng.Intn(35) + 1})
	}
	shapes = append(shapes, shape{9, 300, 33}, shape{131, 140, 129}) // several 64-column blocks; big enough to tile
	for _, w := range []int{1, 3} {
		prev := kernels.SetWorkers(w)
		for _, sh := range shapes {
			for _, transA := range []bool{false, true} {
				for _, transB := range []bool{false, true} {
					for _, alpha := range simdCoefs {
						for _, beta := range simdCoefs {
							hostile := rng.Intn(2) == 0
							a := hostileSlice(rng, sh.m*sh.k, hostile)
							b := hostileSlice(rng, sh.k*sh.n, hostile)
							c := hostileSlice(rng, sh.m*sh.n, hostile)
							if i := gemmBothKernels(transA, transB, sh.m, sh.n, sh.k, alpha, a, b, beta, c); i != noMismatch {
								t.Fatalf("m%d n%d k%d tA%v tB%v alpha%v beta%v workers %d hostile %v: avx2 and portable differ at C[%d]",
									sh.m, sh.n, sh.k, transA, transB, alpha, beta, w, hostile, i)
							}
						}
					}
				}
			}
		}
		kernels.SetWorkers(prev)
	}
}

// FuzzGemmSIMDMatchesPortable lets the fuzzer pick the shape, the transposes,
// the coefficients and the raw bits of every operand element (cycled from
// the input), and holds the AVX2 kernels to the pure-Go ones on the result.
// Bit 2 of trans hands both kernels a C full of NaN: at beta 0 neither may
// read it, so the portable result has none that A and B did not put there,
// and a kernel that loads C differs from it.
func FuzzGemmSIMDMatchesPortable(f *testing.F) {
	if !kernels.UseAVX2 {
		f.Skip("no AVX2 on this machine: Gemm already runs the portable kernels")
	}
	f.Add(uint8(5), uint8(9), uint8(7), uint8(0), float32(1), float32(0), []byte{0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 192, 127})
	f.Fuzz(func(t *testing.T, m, n, k, trans uint8, alpha, beta float32, data []byte) {
		mi, ni, ki := int(m%72), int(n%72), int(k%72)
		bits := func(i int) float32 {
			if len(data) < 4 {
				return float32(i%5) - 2
			}
			var w [4]byte
			for j := range w {
				w[j] = data[(4*i+j)%len(data)]
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
		}
		fill := func(n, from int) []float32 {
			s := make([]float32, n+1)
			for i := range s {
				s[i] = bits(from + i)
			}
			return s[1:] // off vector alignment
		}
		a := fill(mi*ki, 0)
		b := fill(ki*ni, len(a))
		c := fill(mi*ni, len(a)+len(b))
		if trans&4 != 0 {
			for i := range c {
				c[i] = float32(math.NaN())
			}
		}
		if i := gemmBothKernels(trans&1 != 0, trans&2 != 0, mi, ni, ki, alpha, a, b, beta, c); i != noMismatch {
			t.Fatalf("m%d n%d k%d trans%02b alpha%v beta%v: avx2 and portable differ at C[%d]", mi, ni, ki, trans&3, alpha, beta, i)
		}
	})
}
