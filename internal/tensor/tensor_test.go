package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
	if x.NumDims() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
}

func TestNewEmptyDimension(t *testing.T) {
	x := New(0, 5)
	if x.Len() != 0 {
		t.Fatalf("Len = %d, want 0", x.Len())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1, 3)
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	x, err := FromSlice(d, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", x.At(1, 2))
	}
	// FromSlice does not copy.
	d[0] = 42
	if x.At(0, 0) != 42 {
		t.Fatal("FromSlice copied data; want aliasing")
	}
	if _, err := FromSlice(d, 7); err == nil {
		t.Fatal("FromSlice with wrong shape should error")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if x.Data[2*4+1] != 7.5 {
		t.Fatal("Set wrote to wrong flat offset")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	_ = x.At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone aliases original data")
	}
	if !x.SameShape(y) {
		t.Fatal("Clone changed shape")
	}
}

func TestViewSharesData(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	v := x.MustView(3, 2)
	v.Set(99, 0, 1)
	if x.Data[1] != 99 {
		t.Fatal("View does not alias data")
	}
	if _, err := x.View(4, 2); err == nil {
		t.Fatal("View with wrong element count should error")
	}
}

func TestSliceRows(t *testing.T) {
	x := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	s := x.MustSliceRows(1, 3)
	if s.Dim(0) != 2 || s.Dim(1) != 2 {
		t.Fatalf("slice shape = %v, want [2 2]", s.Shape())
	}
	if s.At(0, 0) != 3 || s.At(1, 1) != 6 {
		t.Fatal("slice has wrong contents")
	}
	s.Set(42, 0, 0)
	if x.At(1, 0) != 42 {
		t.Fatal("SliceRows does not alias")
	}
	if _, err := x.SliceRows(2, 4); err == nil {
		t.Fatal("out-of-range SliceRows should error")
	}
	if _, err := x.SliceRows(2, 1); err == nil {
		t.Fatal("inverted SliceRows should error")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3}, 3)
	b := MustFromSlice([]float32{10, 20, 30}, 3)
	a.Add(b)
	if a.Data[2] != 33 {
		t.Fatalf("Add: got %v", a.Data)
	}
	a.Sub(b)
	if a.Data[0] != 1 {
		t.Fatalf("Sub: got %v", a.Data)
	}
	a.Mul(b)
	if a.Data[1] != 40 {
		t.Fatalf("Mul: got %v", a.Data)
	}
	a.Scale(0.5)
	if a.Data[1] != 20 {
		t.Fatalf("Scale: got %v", a.Data)
	}
	a = MustFromSlice([]float32{1, 1, 1}, 3)
	a.AddScaled(2, b)
	if a.Data[2] != 61 {
		t.Fatalf("AddScaled: got %v", a.Data)
	}
}

func TestReductions(t *testing.T) {
	x := MustFromSlice([]float32{3, -1, 4, 1, -5, 9}, 6)
	if got := x.Sum(); got != 11 {
		t.Fatalf("Sum = %v, want 11", got)
	}
	if got := x.Mean(); math.Abs(got-11.0/6) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	if got := x.Max(); got != 9 {
		t.Fatalf("Max = %v, want 9", got)
	}
	if got := x.ArgMax(); got != 5 {
		t.Fatalf("ArgMax = %v, want 5", got)
	}
	if got := x.Norm2(); math.Abs(got-math.Sqrt(9+1+16+1+25+81)) > 1e-6 {
		t.Fatalf("Norm2 = %v", got)
	}
	empty := New(0)
	if empty.Mean() != 0 {
		t.Fatal("Mean of empty should be 0")
	}
}

func TestArgMaxTieLowestIndex(t *testing.T) {
	x := MustFromSlice([]float32{5, 7, 7, 2}, 4)
	if got := x.ArgMax(); got != 1 {
		t.Fatalf("ArgMax tie = %d, want 1", got)
	}
}

func TestAllFinite(t *testing.T) {
	x := MustFromSlice([]float32{1, 2}, 2)
	if !x.AllFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	x.Data[1] = float32(math.NaN())
	if x.AllFinite() {
		t.Fatal("NaN not detected")
	}
	x.Data[1] = float32(math.Inf(1))
	if x.AllFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestApproxEqual(t *testing.T) {
	a := MustFromSlice([]float32{1, 2}, 2)
	b := MustFromSlice([]float32{1.0005, 2}, 2)
	if !a.ApproxEqual(b, 1e-3) {
		t.Fatal("should be approx equal at 1e-3")
	}
	if a.ApproxEqual(b, 1e-5) {
		t.Fatal("should differ at 1e-5")
	}
	c := MustFromSlice([]float32{1, 2}, 1, 2)
	if a.ApproxEqual(c, 1) {
		t.Fatal("different shapes must not compare equal")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(2, 2)
	b := MustFromSlice([]float32{1, 2, 3, 4}, 4)
	if err := a.CopyFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 1) != 4 {
		t.Fatal("CopyFrom wrong contents")
	}
	if err := a.CopyFrom(New(5)); err == nil {
		t.Fatal("size mismatch should error")
	}
}

func TestZeroFill(t *testing.T) {
	x := Full(3, 4)
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero did not clear")
	}
	x.Fill(2)
	if x.Sum() != 8 {
		t.Fatal("Fill failed")
	}
}

// Property: Add then Sub restores the original (exactly, for small ints).
func TestPropAddSubInverse(t *testing.T) {
	f := func(vals []int8) bool {
		if len(vals) == 0 {
			return true
		}
		a := New(len(vals))
		b := New(len(vals))
		for i, v := range vals {
			a.Data[i] = float32(v)
			b.Data[i] = float32(int8(i * 13 % 97))
		}
		orig := a.Clone()
		a.Add(b)
		a.Sub(b)
		return a.ApproxEqual(orig, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum is linear: Sum(a+b) == Sum(a)+Sum(b) for integer-valued data.
func TestPropSumLinear(t *testing.T) {
	f := func(xs, ys []int8) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			a.Data[i] = float32(xs[i])
			b.Data[i] = float32(ys[i])
		}
		sa, sb := a.Sum(), b.Sum()
		a.Add(b)
		return math.Abs(a.Sum()-(sa+sb)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPermIntoMatchesPerm: PermInto writes Perm's permutation from Perm's
// draws — over scratch that still holds an earlier permutation — and leaves
// the generator where Perm leaves it.
func TestPermIntoMatchesPerm(t *testing.T) {
	scratch := make([]int, 256)
	for i := range scratch {
		scratch[i] = -7 - i
	}
	for _, n := range []int{0, 1, 2, 255, 256} {
		for seed := int64(0); seed < 20; seed++ {
			a, b := NewRNG(seed), NewRNG(seed)
			want := a.Perm(n)
			got := scratch[:n]
			b.PermInto(got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d seed=%d: element %d is %d, Perm gives %d", n, seed, i, got[i], want[i])
				}
			}
			if a.Int63() != b.Int63() {
				t.Fatalf("n=%d seed=%d: generators diverged after the permutation", n, seed)
			}
		}
	}
}
