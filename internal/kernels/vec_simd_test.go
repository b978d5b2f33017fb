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

// The operand arrays of vecBothKernels: what AddInto and MomentumStep work on,
// the destinations of the three activation kernels (which read src and g),
// and the pool's output and its two input rows, which are twice as long.
const (
	opSum = iota
	opSrc
	opW
	opV
	opG
	opRect
	opAddRect
	opGate
	opPoolOut
	opRow0
	opRow1
	vecOps
)

// vecOperands builds the operand arrays for a window of n elements starting
// off elements in, every element — margins and destinations included — drawn
// from fill.
func vecOperands(n, off int, fill func() float32) [vecOps][]float32 {
	var ops [vecOps][]float32
	for k := range ops {
		size := off + n + vecMargin
		if k == opRow0 || k == opRow1 {
			size += n
		}
		ops[k] = make([]float32, size)
		for i := range ops[k] {
			ops[k][i] = fill()
		}
	}
	return ops
}

// vecBothKernels runs every vector kernel over the n elements starting off
// elements into copies of the operand arrays — windows of an arena — once on
// the AVX2 bodies and once on the pure-Go loops, and reports the first
// difference in any array they write, margins included. The pool's input is
// poolW wide and its first row starts at flat index base.
func vecBothKernels(n, off int, scale, wd, momentum, lr float32, base, poolW int, ops [vecOps][]float32) (string, int, bool) {
	run := func(simd bool) (arr [vecOps][]float32, argmax []int32) {
		var win [vecOps][]float32
		for k, o := range ops {
			arr[k] = append([]float32(nil), o...)
			win[k] = arr[k][off : off+n : off+n]
		}
		row0, row1 := arr[opRow0][off:off+2*n:off+2*n], arr[opRow1][off:off+2*n:off+2*n]
		argmax = make([]int32, off+n+vecMargin)
		for i := range argmax {
			argmax[i] = -7
		}
		arg := argmax[off : off+n : off+n]
		if !simd {
			addIntoPortable(win[opSum], win[opSrc])
			momentumStepPortable(win[opW], win[opV], win[opG], scale, wd, momentum, lr)
			rectifyIntoPortable(win[opRect], win[opSrc])
			addRectifyIntoPortable(win[opAddRect], win[opSrc], win[opG])
			gateIntoPortable(win[opGate], win[opG], win[opSrc])
			maxPool2x2Portable(win[opPoolOut], arg, row0, row1, base, poolW)
			return arr, argmax
		}
		if n > 0 {
			addIntoAVX2(&win[opSum][0], &win[opSrc][0], n)
			momentumStepAVX2(&win[opW][0], &win[opV][0], &win[opG][0], n, scale, wd, momentum, lr)
			rectifyIntoAVX2(&win[opRect][0], &win[opSrc][0], n)
			addRectifyIntoAVX2(&win[opAddRect][0], &win[opSrc][0], &win[opG][0], n)
			gateIntoAVX2(&win[opGate][0], &win[opG][0], &win[opSrc][0], n)
		}
		// The pool's AVX2 body needs four outputs; MaxPool2x2 sends shorter
		// rows to the portable loop, so the wrapper is what is held to it.
		MaxPool2x2(win[opPoolOut], arg, row0, row1, base, poolW)
		return arr, argmax
	}
	got, gotArg := run(true)
	want, wantArg := run(false)
	names := [vecOps]string{"AddInto dst", "src", "MomentumStep w", "MomentumStep v", "g", "RectifyInto dst",
		"AddRectifyInto dst", "GateInto dst", "MaxPool2x2 out", "row0", "row1"}
	for k, name := range names {
		for i := range got[k] {
			// The activation kernels and the pool compute no NaN of their
			// own: theirs are held to the payload.
			if !sameBits(got[k][i], want[k][i]) || (k >= opRect && math.Float32bits(got[k][i]) != math.Float32bits(want[k][i])) {
				return name, i - off, false
			}
		}
	}
	for i := range gotArg {
		if gotArg[i] != wantArg[i] {
			return "MaxPool2x2 argmax", i - off, false
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

// fewValues draws from a handful of values, so that a pool window's maximum
// is tied between taps more often than not, -0 meets +0, and whole windows
// are NaN or -Inf.
func fewValues(rng *rand.Rand) float32 {
	return [...]float32{0, float32(math.Copysign(0, -1)), 1, 1, -1, float32(math.NaN()), float32(math.Inf(-1)), float32(math.Inf(1))}[rng.Intn(8)]
}

// TestVecKernelsMatchPortable sweeps the AVX2 kernels against their pure-Go
// twins: every length 0..67 and a few long ones (every unrolled block, every
// tail), every window start 0..7 elements into the arrays, ordinary, hostile
// and much-tied values, the coefficient corners training uses (no weight
// decay, scale 1, no momentum), pool inputs of even and odd width.
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
	fills := []struct {
		values string
		draw   func() float32
	}{
		{"ordinary", func() float32 { return float32(rng.NormFloat64()) }},
		{"hostile", func() float32 { return hostile(rng) }},
		{"tied", func() float32 { return fewValues(rng) }},
	}
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			for ci, c := range coefs {
				for _, f := range fills {
					ops := vecOperands(n, off, f.draw)
					base, poolW := rng.Intn(1<<20), 2*n+ci%2
					if name, i, ok := vecBothKernels(n, off, c[0], c[1], c[2], c[3], base, poolW, ops); !ok {
						t.Fatalf("n%d off%d coefs%v %s values: avx2 and portable differ at %s[%d]", n, off, c, f.values, name, i)
					}
				}
			}
		}
	}
}

// FuzzVecKernelsMatchPortable lets the fuzzer pick the length, the window
// start, the coefficients and the raw bits of every operand element (cycled
// from the input), and holds the AVX2 kernels to the pure-Go ones. The pool's
// input is odd-wide at odd window starts.
func FuzzVecKernelsMatchPortable(f *testing.F) {
	if !UseAVX2 {
		f.Skip("no AVX2 on this machine: the kernels already run the portable loops")
	}
	f.Add(uint8(9), uint8(1), float32(0.25), float32(1e-4), float32(0.9), float32(0.1), []byte{0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 192, 127})
	f.Fuzz(func(t *testing.T, n, off uint8, scale, wd, momentum, lr float32, data []byte) {
		ni, oi := int(n%68), int(off%8)
		next := 0
		ops := vecOperands(ni, oi, func() float32 {
			v := float32(next%5) - 2
			if len(data) >= 4 {
				var w [4]byte
				for j := range w {
					w[j] = data[(4*next+j)%len(data)]
				}
				v = math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
			}
			next++
			return v
		})
		if name, i, ok := vecBothKernels(ni, oi, scale, wd, momentum, lr, 1000*oi, 2*ni+oi%2, ops); !ok {
			t.Fatalf("n%d off%d scale%v wd%v momentum%v lr%v: avx2 and portable differ at %s[%d]", ni, oi, scale, wd, momentum, lr, name, i)
		}
	})
}
