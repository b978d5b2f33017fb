//go:build amd64 && !purego

package kernels

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports bit equality, with every NaN equal to every other: which
// operand's payload an x86 add or multiply of two NaNs keeps depends on the
// operand order the compiler happened to pick, which Go does not define.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// vecMargin is how many elements past a kernel's window the operand arrays
// extend; with the window's start offset they are the margins a stray store
// would land in.
const vecMargin = 9

// vecBothKernels runs AddInto and MomentumStep over the n elements starting
// off elements into copies of the operand arrays (sum, src, w, v, g; each
// off+n+vecMargin long) — windows of an arena — once on the AVX2 bodies and
// once on the pure-Go loops, and reports the first difference in any array
// they write, margins included.
func vecBothKernels(n, off int, scale, wd, momentum, lr float32, ops [5][]float32) (string, int, bool) {
	run := func(simd bool) (sum, w, v []float32) {
		var arr, win [5][]float32
		for k, o := range ops {
			arr[k] = append([]float32(nil), o...)
			win[k] = arr[k][off : off+n : off+n]
		}
		if !simd {
			addIntoPortable(win[0], win[1])
			momentumStepPortable(win[2], win[3], win[4], scale, wd, momentum, lr)
		} else if n > 0 {
			addIntoAVX2(&win[0][0], &win[1][0], n)
			momentumStepAVX2(&win[2][0], &win[3][0], &win[4][0], n, scale, wd, momentum, lr)
		}
		return arr[0], arr[2], arr[3]
	}
	gs, gw, gv := run(true)
	ws, ww, wv := run(false)
	for _, c := range []struct {
		name      string
		got, want []float32
	}{{"AddInto dst", gs, ws}, {"MomentumStep w", gw, ww}, {"MomentumStep v", gv, wv}} {
		for i := range c.got {
			if !sameBits(c.got[i], c.want[i]) {
				return c.name, i - off, false
			}
		}
	}
	return "", 0, true
}

// hostile draws from every float32 class: zeros of both signs, NaN, both
// infinities, denormals, near-overflow magnitudes, and ordinary values.
func hostile(rng *rand.Rand) float32 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return float32(math.NaN())
	case 3:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	case 4:
		return math.Float32frombits(uint32(rng.Intn(1<<23))) * float32(1-2*rng.Intn(2)) // denormal
	case 5:
		return (rng.Float32()*2 - 1) * 3e38
	default:
		return (rng.Float32()*2 - 1) * float32(math.Pow(2, float64(rng.Intn(12)-6)))
	}
}

// TestVecKernelsMatchPortable sweeps both AVX2 kernels against their pure-Go
// twins: every length 0..67 and a few long ones (every unrolled block, every
// tail), every window start 0..7 elements into the arrays, ordinary and
// hostile values, and the coefficient corners training uses (no weight
// decay, scale 1, no momentum).
func TestVecKernelsMatchPortable(t *testing.T) {
	if !UseAVX2 {
		t.Skip("no AVX2 on this machine: the kernels already run the portable loops")
	}
	rng := rand.New(rand.NewSource(31))
	lengths := []int{128, 129, 1000, 4099}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	coefs := [][4]float32{{0.25, 1e-4, 0.9, 0.1}, {1, 0, 0.9, 0.005}, {0.125, 1e-4, 0, 1}, {1, 0, 0, 0}}
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			for _, c := range coefs {
				for _, bad := range []bool{false, true} {
					var ops [5][]float32
					for k := range ops {
						ops[k] = make([]float32, off+n+vecMargin)
						for i := range ops[k] {
							if bad {
								ops[k][i] = hostile(rng)
							} else {
								ops[k][i] = float32(rng.NormFloat64())
							}
						}
					}
					if name, i, ok := vecBothKernels(n, off, c[0], c[1], c[2], c[3], ops); !ok {
						t.Fatalf("n%d off%d coefs%v hostile %v: avx2 and portable differ at %s[%d]", n, off, c, bad, name, i)
					}
				}
			}
		}
	}
}

// FuzzVecKernelsMatchPortable lets the fuzzer pick the length, the window
// start, the coefficients and the raw bits of every operand element (cycled
// from the input), and holds both AVX2 kernels to the pure-Go ones.
func FuzzVecKernelsMatchPortable(f *testing.F) {
	if !UseAVX2 {
		f.Skip("no AVX2 on this machine: the kernels already run the portable loops")
	}
	f.Add(uint8(9), uint8(1), float32(0.25), float32(1e-4), float32(0.9), float32(0.1), []byte{0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 192, 127})
	f.Fuzz(func(t *testing.T, n, off uint8, scale, wd, momentum, lr float32, data []byte) {
		ni, oi := int(n%68), int(off%8)
		var ops [5][]float32
		next := 0
		for k := range ops {
			ops[k] = make([]float32, oi+ni+vecMargin)
			for i := range ops[k] {
				ops[k][i] = float32(next%5) - 2
				if len(data) >= 4 {
					var w [4]byte
					for j := range w {
						w[j] = data[(4*next+j)%len(data)]
					}
					ops[k][i] = math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
				}
				next++
			}
		}
		if name, i, ok := vecBothKernels(ni, oi, scale, wd, momentum, lr, ops); !ok {
			t.Fatalf("n%d off%d scale%v wd%v momentum%v lr%v: avx2 and portable differ at %s[%d]", ni, oi, scale, wd, momentum, lr, name, i)
		}
	})
}
