// Package tensor implements dense float32 tensors and the numeric kernels
// (matrix multiply, the packed convolution lowering, reductions,
// elementwise arithmetic) that the neural-network layers in internal/nn are
// built on. It is a from-scratch, stdlib-only substitute for the cuDNN/CUDA
// kernels used by the paper's Torch stack; the layout is NCHW throughout,
// matching Torch.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/kernels"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// tensor; use New or the convenience constructors to allocate one.
type Tensor struct {
	// Data holds the elements in row-major (C) order. Multiple tensors may
	// alias the same backing slice (see View and SliceRows).
	Data  []float32
	shape []int
}

// New allocates a zero-filled tensor with the given shape. A dimension of
// zero yields an empty tensor; negative dimensions panic.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// Reuse returns t when it already has exactly the given shape and a fresh
// zero-filled tensor otherwise (t may be nil). It is how a layer keeps the
// tensor it returns across steps: the contents of a reused tensor are
// whatever the last step left, so the caller writes every element.
func Reuse(t *Tensor, shape ...int) *Tensor {
	if t != nil && slices.Equal(t.shape, shape) {
		return t
	}
	// New's panic message retains its argument; the copy keeps that from
	// forcing every caller's shape list onto the heap.
	return New(append([]int(nil), shape...)...)
}

// FromSlice wraps data in a tensor of the given shape without copying.
// It returns an error if the element count does not match the shape.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("tensor: shape %v wants %d elements, got %d", shape, n, len(data))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}, nil
}

// MustFromSlice is FromSlice but panics on error; for tests and literals.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Full allocates a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones allocates a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NumDims returns the number of dimensions.
func (t *Tensor) NumDims() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i, d := range t.shape {
		if u.shape[i] != d {
			return false
		}
	}
	return true
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has %d dims, tensor has %d", idx, len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Data: make([]float32, len(t.Data)), shape: append([]int(nil), t.shape...)}
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies u's elements into t. The shapes must have equal element
// counts (shape itself may differ, matching Torch's copy semantics).
func (t *Tensor) CopyFrom(u *Tensor) error {
	if len(t.Data) != len(u.Data) {
		return fmt.Errorf("tensor: copy size mismatch %d vs %d", len(t.Data), len(u.Data))
	}
	copy(t.Data, u.Data)
	return nil
}

// View returns a tensor sharing t's backing data with a new shape. The new
// shape must describe the same number of elements.
func (t *Tensor) View(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("tensor: view shape %v wants %d elements, have %d", shape, n, len(t.Data))
	}
	return &Tensor{Data: t.Data, shape: append([]int(nil), shape...)}, nil
}

// MustView is View but panics on error.
func (t *Tensor) MustView(shape ...int) *Tensor {
	v, err := t.View(shape...)
	if err != nil {
		panic(err)
	}
	return v
}

// SliceRows returns a view of rows [from, to) along the first dimension.
// The view aliases t's data.
func (t *Tensor) SliceRows(from, to int) (*Tensor, error) {
	if len(t.shape) == 0 {
		return nil, errors.New("tensor: SliceRows on scalar tensor")
	}
	if from < 0 || to > t.shape[0] || from > to {
		return nil, fmt.Errorf("tensor: rows [%d,%d) out of range for dim0=%d", from, to, t.shape[0])
	}
	rowLen := 1
	for _, d := range t.shape[1:] {
		rowLen *= d
	}
	shape := append([]int{to - from}, t.shape[1:]...)
	return &Tensor{Data: t.Data[from*rowLen : to*rowLen], shape: shape}, nil
}

// MustSliceRows is SliceRows but panics on error.
func (t *Tensor) MustSliceRows(from, to int) *Tensor {
	v, err := t.SliceRows(from, to)
	if err != nil {
		panic(err)
	}
	return v
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Add adds u into t elementwise (t += u).
func (t *Tensor) Add(u *Tensor) {
	checkSameLen(t, u, "Add")
	kernels.AddInto(t.Data, u.Data)
}

// Sub subtracts u from t elementwise (t -= u).
func (t *Tensor) Sub(u *Tensor) {
	checkSameLen(t, u, "Sub")
	for i, v := range u.Data {
		t.Data[i] -= v
	}
}

// Mul multiplies t by u elementwise (t *= u).
func (t *Tensor) Mul(u *Tensor) {
	checkSameLen(t, u, "Mul")
	for i, v := range u.Data {
		t.Data[i] *= v
	}
}

// Scale multiplies every element by a.
func (t *Tensor) Scale(a float32) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddScaled performs t += a*u (axpy).
func (t *Tensor) AddScaled(a float32, u *Tensor) {
	checkSameLen(t, u, "AddScaled")
	for i, v := range u.Data {
		t.Data[i] += a * v
	}
}

// Sum returns the sum of all elements in float64 for accuracy.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements, or 0 for an empty tensor.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element; it panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element; it panics on an
// empty tensor. Ties resolve to the lowest index.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// AllFinite reports whether every element is finite (no NaN or Inf).
func (t *Tensor) AllFinite() bool {
	for _, v := range t.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether t and u have the same shape and every pair of
// elements differs by at most tol in absolute value.
func (t *Tensor) ApproxEqual(u *Tensor, tol float32) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.Data {
		d := v - u.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// String renders a short human-readable summary, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v[%d elems]", t.shape, len(t.Data))
}

func checkSameLen(t, u *Tensor, op string) {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, len(t.Data), len(u.Data)))
	}
}
