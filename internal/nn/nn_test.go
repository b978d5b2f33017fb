package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestConvForwardKnownValues(t *testing.T) {
	rng := tensor.NewRNG(1)
	conv := NewConv2D("c", 1, 1, 2, 2, 1, 1, 0, 0, ConvOpts{Bias: true}, rng)
	conv.Weight.Value.CopyFrom(tensor.MustFromSlice([]float32{1, 2, 3, 4}, 4))
	conv.Bias.Value.Data[0] = 10
	x := tensor.MustFromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	y := conv.Forward(x, true)
	// window(0,0) = 1+4+12+20 = 37; +bias = 47
	want := tensor.MustFromSlice([]float32{47, 57, 77, 87}, 1, 1, 2, 2)
	if !y.ApproxEqual(want, 1e-5) {
		t.Fatalf("conv out %v, want %v", y.Data, want.Data)
	}
}

func TestConvOutputShape(t *testing.T) {
	rng := tensor.NewRNG(2)
	// The ResNet-50 stem: 7x7/2 pad 3, 224 -> 112.
	conv := NewConv2D("stem", 3, 64, 7, 7, 2, 2, 3, 3, ConvOpts{}, rng)
	x := tensor.New(1, 3, 224, 224)
	y := conv.Forward(x, false)
	if y.Dim(1) != 64 || y.Dim(2) != 112 || y.Dim(3) != 112 {
		t.Fatalf("stem out shape %v, want [1 64 112 112]", y.Shape())
	}
}

// panicMessage runs fn and returns what it panicked with ("" if it returned).
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

func TestConvShapeMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(2)
	conv := NewConv2D("c", 3, 4, 3, 3, 1, 1, 1, 1, ConvOpts{}, rng)
	if panicMessage(func() { conv.Forward(tensor.New(1, 2, 5, 5), false) }) == "" {
		t.Fatal("wrong channel count did not panic")
	}
	// A kernel that does not fit the padded input must be refused by the
	// layer, by name — not lowered into a window hanging off the edge
	// (stride 2) or surface as a negative dimension (stride 1).
	for _, tc := range []struct {
		layer Layer
		x     *tensor.Tensor
	}{
		{NewConv2D("narrow", 3, 4, 3, 3, 2, 2, 0, 0, ConvOpts{}, rng), tensor.New(1, 3, 2, 2)},
		{NewConv2D("narrow", 3, 4, 3, 3, 1, 1, 0, 0, ConvOpts{}, rng), tensor.New(1, 3, 5, 1)},
		{NewMaxPool2D("narrow", 3, 3, 2, 2, 0, 0), tensor.New(1, 3, 2, 2)},
		{NewAvgPool2D("narrow", 3, 3, 1, 1, 0, 0), tensor.New(1, 3, 1, 4)},
	} {
		msg := panicMessage(func() { tc.layer.Forward(tc.x, false) })
		if !strings.Contains(msg, "narrow") || !strings.Contains(msg, fmt.Sprint(tc.x.Shape())) || !strings.Contains(msg, "3×3") {
			t.Fatalf("%T over %v: panic %q, want the layer name, input shape and kernel", tc.layer, tc.x.Shape(), msg)
		}
	}
}

// TestBackwardGradientShapeChecked: Conv2D and BatchNorm2D index gradOut by
// the geometry Forward cached, so a gradient of any other shape must be
// refused on the caller's goroutine, naming the layer and both shapes — not
// silently truncated, and not an index panic inside a pool task.
func TestBackwardGradientShapeChecked(t *testing.T) {
	rng := tensor.NewRNG(2)
	x := tensor.New(2, 3, 6, 6)
	rng.FillNormal(x, 0, 1)
	for _, l := range []Layer{
		NewConv2D("checked", 3, 4, 3, 3, 1, 1, 1, 1, ConvOpts{}, rng),
		NewConv2D("checked", 3, 4, 3, 3, 2, 2, 1, 1, ConvOpts{}, rng),
		NewBatchNorm2D("checked", 3, rng),
	} {
		want := l.Forward(x, true).Shape()
		for _, bad := range [][]int{{2, want[1], want[2] + 1, want[3]}, {1, want[1], want[2], want[3]}, {2, want[1], want[2] * want[3]}} {
			msg := panicMessage(func() { l.Backward(tensor.New(bad...)) })
			if !strings.Contains(msg, "checked") || !strings.Contains(msg, fmt.Sprint(bad)) || !strings.Contains(msg, fmt.Sprint(want)) {
				t.Fatalf("%T backward with %v after forward %v: panic %q, want the layer name and both shapes", l, bad, want, msg)
			}
		}
		l.Backward(tensor.New(want...)) // the right shape still goes through
	}
}

func TestBatchNormNormalizesTrainOutput(t *testing.T) {
	rng := tensor.NewRNG(3)
	bn := NewBatchNorm2D("bn", 2, rng)
	x := tensor.New(8, 2, 4, 4)
	rng.FillNormal(x, 5, 3)
	y := bn.Forward(x, true)
	// With gamma=1, beta=0 each channel of y should be ~N(0,1).
	n, hw := 8, 16
	for c := 0; c < 2; c++ {
		var sum, sq float64
		for i := 0; i < n; i++ {
			base := (i*2 + c) * hw
			for j := 0; j < hw; j++ {
				v := float64(y.Data[base+j])
				sum += v
				sq += v * v
			}
		}
		m := float64(n * hw)
		mean := sum / m
		variance := sq/m - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("channel %d mean %v, want ~0", c, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d var %v, want ~1", c, variance)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := tensor.NewRNG(4)
	bn := NewBatchNorm2D("bn", 1, rng)
	x := tensor.New(16, 1, 8, 8)
	for i := 0; i < 200; i++ {
		rng.FillNormal(x, 2, 1.5)
		bn.Forward(x, true)
	}
	if math.Abs(float64(bn.RunningMean.Data[0])-2) > 0.1 {
		t.Fatalf("running mean %v, want ~2", bn.RunningMean.Data[0])
	}
	if math.Abs(float64(bn.RunningVar.Data[0])-2.25) > 0.25 {
		t.Fatalf("running var %v, want ~2.25", bn.RunningVar.Data[0])
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := tensor.NewRNG(5)
	bn := NewBatchNorm2D("bn", 1, rng)
	bn.RunningMean.Data[0] = 10
	bn.RunningVar.Data[0] = 4
	x := tensor.MustFromSlice([]float32{10, 12, 8, 10}, 1, 1, 2, 2)
	y := bn.Forward(x, false)
	// (x-10)/2 with eps tiny.
	want := []float32{0, 1, -1, 0}
	for i := range want {
		if math.Abs(float64(y.Data[i]-want[i])) > 1e-3 {
			t.Fatalf("eval BN out %v, want %v", y.Data, want)
		}
	}
}

func TestMaxPoolForwardKnown(t *testing.T) {
	pool := NewMaxPool2D("mp", 2, 2, 2, 2, 0, 0)
	x := tensor.MustFromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	y := pool.Forward(x, false)
	want := tensor.MustFromSlice([]float32{4, 8, 12, 16}, 1, 1, 2, 2)
	if !y.ApproxEqual(want, 0) {
		t.Fatalf("maxpool out %v, want %v", y.Data, want.Data)
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	pool := NewMaxPool2D("mp", 2, 2, 2, 2, 0, 0)
	x := tensor.MustFromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	pool.Forward(x, true)
	g := pool.Backward(tensor.MustFromSlice([]float32{7}, 1, 1, 1, 1))
	want := []float32{0, 0, 0, 7}
	for i := range want {
		if g.Data[i] != want[i] {
			t.Fatalf("maxpool grad %v, want %v", g.Data, want)
		}
	}
}

// TestMaxPool2x2MatchesGeneralLoop holds the 2×2 / stride 2 / unpadded path
// (kernels.MaxPool2x2, a row at a time) to the general window loop, values and
// argmax, over planes of ordinary values and planes drawn from a handful of
// values — so that most windows tie, in every tap position, zeros of both
// signs meet, and whole windows are NaN or −Inf — at the output widths the
// models use (6, 8, 12), narrower than one vector, and odd input sizes.
func TestMaxPool2x2MatchesGeneralLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nan, ninf := float32(math.NaN()), float32(math.Inf(-1))
	few := []float32{nan, ninf, -1, float32(math.Copysign(0, -1)), 0, 1, 1, float32(math.Inf(1))}
	for _, shape := range [][]int{{3, 5, 12, 12}, {2, 4, 24, 24}, {2, 3, 16, 16}, {2, 3, 13, 11}, {1, 2, 2, 2}, {2, 2, 7, 6}, {1, 2, 5, 67}} {
		x := tensor.New(shape...)
		for i := range x.Data {
			if plane := i / (shape[2] * shape[3]); plane%2 == 0 {
				x.Data[i] = few[rng.Intn(len(few))]
			} else {
				x.Data[i] = float32(rng.NormFloat64())
			}
		}
		w := shape[3]
		x.Data[0], x.Data[1], x.Data[w], x.Data[w+1] = nan, nan, nan, nan // the first window: nothing to pick

		p := NewMaxPool2D("mp", 2, 2, 2, 2, 0, 0)
		out := p.Forward(x, true).Clone()
		argmax := slices.Clone(p.argmax[:out.Len()])
		if out.Data[0] != ninf || argmax[0] != -1 {
			t.Fatalf("shape %v: an all-NaN window pooled to (%v, %d), want (-Inf, -1)", shape, out.Data[0], argmax[0])
		}
		p.x = x
		for i := 0; i < shape[0]; i++ {
			p.forwardImage(i)
		}
		for i := range out.Data {
			if math.Float32bits(out.Data[i]) != math.Float32bits(p.out.Data[i]) || argmax[i] != p.argmax[i] {
				t.Fatalf("shape %v output %d: kernel path (%v, %d), general loop (%v, %d)", shape, i, out.Data[i], argmax[i], p.out.Data[i], p.argmax[i])
			}
		}
	}
}

func TestAvgPoolForwardKnown(t *testing.T) {
	pool := NewAvgPool2D("ap", 2, 2, 2, 2, 0, 0)
	x := tensor.MustFromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		1, 1, 1, 1,
		1, 1, 1, 1,
	}, 1, 1, 4, 4)
	y := pool.Forward(x, false)
	want := tensor.MustFromSlice([]float32{2.5, 6.5, 1, 1}, 1, 1, 2, 2)
	if !y.ApproxEqual(want, 1e-6) {
		t.Fatalf("avgpool out %v, want %v", y.Data, want.Data)
	}
}

func TestGlobalAvgPoolKnown(t *testing.T) {
	pool := NewGlobalAvgPool("gap")
	x := tensor.MustFromSlice([]float32{1, 2, 3, 4, 10, 10, 10, 10}, 1, 2, 2, 2)
	y := pool.Forward(x, false)
	if y.Dim(1) != 2 || y.Data[0] != 2.5 || y.Data[1] != 10 {
		t.Fatalf("gap out %v shape %v", y.Data, y.Shape())
	}
}

func TestLinearForwardKnown(t *testing.T) {
	rng := tensor.NewRNG(6)
	lin := NewLinear("fc", 2, 2, rng)
	lin.Weight.Value.CopyFrom(tensor.MustFromSlice([]float32{1, 2, 3, 4}, 4))
	lin.Bias.Value.CopyFrom(tensor.MustFromSlice([]float32{10, 20}, 2))
	x := tensor.MustFromSlice([]float32{1, 1}, 1, 2)
	y := lin.Forward(x, false)
	// y = [1+2+10, 3+4+20]
	if y.Data[0] != 13 || y.Data[1] != 27 {
		t.Fatalf("linear out %v", y.Data)
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU("r")
	x := tensor.MustFromSlice([]float32{-1, 0, 2, -3}, 4)
	y := r.Forward(x, true)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("relu out %v", y.Data)
		}
	}
}

func TestPropReLUNonNegative(t *testing.T) {
	r := NewReLU("r")
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := tensor.MustFromSlice(append([]float32(nil), vals...), len(vals))
		y := r.Forward(x, true)
		for i, v := range y.Data {
			if v < 0 {
				return false
			}
			if x.Data[i] > 0 && v != x.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	ce := NewSoftmaxCrossEntropy()
	logits := tensor.MustFromSlice([]float32{0, 0, 0, 0}, 1, 4)
	loss, err := ce.Forward(logits, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform CE loss %v, want ln(4)=%v", loss, math.Log(4))
	}
	grad := ce.Backward()
	// grad = softmax - onehot = [.25 .25 -.75 .25]
	want := []float32{0.25, 0.25, -0.75, 0.25}
	for i := range want {
		if math.Abs(float64(grad.Data[i]-want[i])) > 1e-6 {
			t.Fatalf("CE grad %v, want %v", grad.Data, want)
		}
	}
}

func TestSoftmaxCrossEntropyErrors(t *testing.T) {
	ce := NewSoftmaxCrossEntropy()
	if _, err := ce.Forward(tensor.New(2, 3), []int{0}); err == nil {
		t.Fatal("label count mismatch should error")
	}
	if _, err := ce.Forward(tensor.New(1, 3), []int{3}); err == nil {
		t.Fatal("out-of-range label should error")
	}
	if _, err := ce.Forward(tensor.New(6), []int{0}); err == nil {
		t.Fatal("1-D logits should error")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{
		1, 5, 2, // argmax 1
		9, 0, 0, // argmax 0
		1, 2, 3, // argmax 2
	}, 3, 3)
	if got := Accuracy(logits, []int{1, 0, 0}); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("accuracy %v, want 2/3", got)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("fl")
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	g := f.Backward(tensor.New(2, 60))
	if g.NumDims() != 4 || g.Dim(3) != 5 {
		t.Fatalf("unflatten shape %v", g.Shape())
	}
}

func TestFlattenUnflattenGradsRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(9)
	net := NewSequential("n",
		NewConv2D("c", 1, 2, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: true}, rng),
		NewLinear("fc", 4, 3, rng),
	)
	ps := net.Params()
	n := ParamCount(ps)
	for _, p := range ps {
		rng.FillNormal(p.Grad, 0, 1)
	}
	flat := make([]float32, n)
	if err := FlattenGrads(ps, flat); err != nil {
		t.Fatal(err)
	}
	saved := make([][]float32, len(ps))
	for i, p := range ps {
		saved[i] = append([]float32(nil), p.Grad.Data...)
		p.Grad.Zero()
	}
	if err := UnflattenGrads(ps, flat); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		for j := range p.Grad.Data {
			if p.Grad.Data[j] != saved[i][j] {
				t.Fatal("grad flatten/unflatten not a round trip")
			}
		}
	}
	// Size mismatch errors.
	if err := FlattenGrads(ps, make([]float32, n-1)); err == nil {
		t.Fatal("short dst should error")
	}
	if err := UnflattenGrads(ps, make([]float32, n+1)); err == nil {
		t.Fatal("long src should error")
	}
}

func TestFlattenValuesRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(10)
	net := NewSequential("n", NewLinear("fc", 3, 2, rng))
	ps := net.Params()
	n := ParamCount(ps)
	flat := make([]float32, n)
	if err := FlattenValues(ps, flat); err != nil {
		t.Fatal(err)
	}
	orig := append([]float32(nil), flat...)
	for _, p := range ps {
		p.Value.Zero()
	}
	if err := UnflattenValues(ps, orig); err != nil {
		t.Fatal(err)
	}
	flat2 := make([]float32, n)
	if err := FlattenValues(ps, flat2); err != nil {
		t.Fatal(err)
	}
	for i := range flat2 {
		if flat2[i] != orig[i] {
			t.Fatal("values flatten/unflatten not a round trip")
		}
	}
}

func TestCopyValues(t *testing.T) {
	rng := tensor.NewRNG(11)
	a := NewLinear("a", 3, 2, rng)
	b := NewLinear("b", 3, 2, rng)
	if err := CopyValues(b.Params(), a.Params()); err != nil {
		t.Fatal(err)
	}
	for i := range a.Weight.Value.Data {
		if b.Weight.Value.Data[i] != a.Weight.Value.Data[i] {
			t.Fatal("CopyValues did not copy weights")
		}
	}
	c := NewLinear("c", 4, 2, rng)
	if err := CopyValues(c.Params(), a.Params()); err == nil {
		t.Fatal("mismatched shapes should error")
	}
}

func TestZeroGrads(t *testing.T) {
	rng := tensor.NewRNG(12)
	l := NewLinear("fc", 3, 2, rng)
	rng.FillNormal(l.Weight.Grad, 1, 1)
	ZeroGrads(l.Params())
	if l.Weight.Grad.Sum() != 0 || l.Bias.Grad.Sum() != 0 {
		t.Fatal("ZeroGrads left nonzero gradients")
	}
}

func TestSequentialParamsAndNames(t *testing.T) {
	rng := tensor.NewRNG(13)
	net := NewSequential("net",
		NewConv2D("c1", 1, 2, 3, 3, 1, 1, 1, 1, ConvOpts{Bias: true}, rng),
		NewBatchNorm2D("bn1", 2, rng),
		NewReLU("r1"),
	)
	ps := net.Params()
	if len(ps) != 4 { // conv w+b, bn gamma+beta
		t.Fatalf("param count %d, want 4", len(ps))
	}
	if net.Name() != "net" {
		t.Fatal("wrong name")
	}
	net.Append(NewReLU("r2"))
	if len(net.Layers) != 4 {
		t.Fatal("Append failed")
	}
	// NoWeightDecay marking: biases and BN params only.
	decayable := 0
	for _, p := range ps {
		if !p.NoWeightDecay {
			decayable++
		}
	}
	if decayable != 1 {
		t.Fatalf("decayable params %d, want 1 (conv weight)", decayable)
	}
}

// TestConstructorsRejectBadGeometry: a geometry no input can satisfy panics
// where the layer is built, naming the layer and the value, not at the first
// Forward as a bare divide by zero.
func TestConstructorsRejectBadGeometry(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, tc := range []struct {
		want  string // the offending value, as the panic words it
		build func() // builds a layer named "bad"
	}{
		{"stride 0×1", func() { NewConv2D("bad", 3, 4, 3, 3, 0, 1, 1, 1, ConvOpts{}, rng) }},
		{"stride 2×-1", func() { NewConv2D("bad", 3, 4, 3, 3, 2, -1, 1, 1, ConvOpts{}, rng) }},
		{"0×3 window", func() { NewConv2D("bad", 3, 4, 0, 3, 1, 1, 1, 1, ConvOpts{}, rng) }},
		{"padding 1×-1", func() { NewConv2D("bad", 3, 4, 3, 3, 1, 1, 1, -1, ConvOpts{}, rng) }},
		{"0 input and 4 output channels", func() { NewConv2D("bad", 0, 4, 3, 3, 1, 1, 1, 1, ConvOpts{}, rng) }},
		{"3 input and -2 output channels", func() { NewConv2D("bad", 3, -2, 3, 3, 1, 1, 1, 1, ConvOpts{}, rng) }},
		{"stride 0×0", func() { NewMaxPool2D("bad", 2, 2, 0, 0, 0, 0) }},
		{"2×0 window", func() { NewMaxPool2D("bad", 2, 0, 2, 2, 0, 0) }},
		{"padding -1×0", func() { NewMaxPool2D("bad", 2, 2, 2, 2, -1, 0) }},
		{"stride 1×0", func() { NewAvgPool2D("bad", 2, 2, 1, 0, 0, 0) }},
		{"-1×2 window", func() { NewAvgPool2D("bad", -1, 2, 2, 2, 0, 0) }},
		{"padding 0×-3", func() { NewAvgPool2D("bad", 2, 2, 2, 2, 0, -3) }},
	} {
		msg := panicMessage(tc.build)
		if !strings.HasPrefix(msg, "nn: bad: ") || !strings.Contains(msg, tc.want) {
			t.Errorf("panic %q, want one naming the layer and %q", msg, tc.want)
		}
	}
	// Every geometry the models build still constructs.
	NewConv2D("stem", 3, 8, 7, 7, 2, 2, 3, 3, ConvOpts{}, rng)
	NewMaxPool2D("mp", 3, 3, 2, 2, 1, 1)
	NewAvgPool2D("ap", 7, 7, 1, 1, 0, 0)
}
