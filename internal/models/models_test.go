package models

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestResNet50ParamCount(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping full ResNet-50 construction")
	}
	rng := tensor.NewRNG(1)
	net := NewResNet50(1000, rng)
	n := nn.ParamCount(net.Params())
	// The reference ResNet-50 has 25,557,032 parameters; its fp32 gradient
	// payload (~102 MB) is the paper's ResNet-50 allreduce size.
	const want = 25557032
	if n != want {
		t.Fatalf("ResNet-50 params = %d, want %d", n, want)
	}
}

func TestGoogLeNetBNConstructs(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewGoogLeNetBN(1000, rng)
	n := nn.ParamCount(net.Params())
	// BN-Inception is ~11.3 M parameters. Accept the known range; the exact
	// count depends on pool-projection choices in reduction modules.
	if n < 10_000_000 || n > 13_000_000 {
		t.Fatalf("GoogLeNetBN params = %d, want ~11.3M", n)
	}
}

func TestTinyResNetForwardShape(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := NewTinyResNet(10, 1, rng)
	x := tensor.New(2, 3, 16, 16)
	rng.FillNormal(x, 0, 1)
	y := net.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("tiny resnet out shape %v, want [2 10]", y.Shape())
	}
	if !y.AllFinite() {
		t.Fatal("tiny resnet produced non-finite outputs")
	}
}

func TestTinyInceptionForwardShape(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := NewTinyInception(7, rng)
	x := tensor.New(2, 3, 16, 16)
	rng.FillNormal(x, 0, 1)
	y := net.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 7 {
		t.Fatalf("tiny inception out shape %v, want [2 7]", y.Shape())
	}
	if !y.AllFinite() {
		t.Fatal("tiny inception produced non-finite outputs")
	}
}

func TestSmallCNNForwardShape(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := NewSmallCNN(5, 16, rng)
	x := tensor.New(3, 3, 16, 16)
	rng.FillNormal(x, 0, 1)
	y := net.Forward(x, false)
	if y.Dim(0) != 3 || y.Dim(1) != 5 {
		t.Fatalf("smallcnn out shape %v, want [3 5]", y.Shape())
	}
}

func TestSmallCNNBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size not divisible by 4 should panic")
		}
	}()
	NewSmallCNN(5, 15, tensor.NewRNG(1))
}

func TestResidualIdentityShortcut(t *testing.T) {
	rng := tensor.NewRNG(7)
	blk := basicBlock("b", 4, 4, 1, rng)
	if blk.Shortcut != nil {
		t.Fatal("same-shape stride-1 block should have identity shortcut")
	}
	blk2 := basicBlock("b2", 4, 8, 2, rng)
	if blk2.Shortcut == nil {
		t.Fatal("downsampling block needs projection shortcut")
	}
}

func TestResidualGradientFlow(t *testing.T) {
	// Numerical gradient check through a residual block with projection.
	rng := tensor.NewRNG(8)
	blk := basicBlock("b", 2, 4, 2, rng)
	x := tensor.New(2, 2, 4, 4)
	rng.FillUniform(x, 0.1, 1)

	loss := func() float64 {
		y := blk.Forward(x, true)
		var l float64
		for i, v := range y.Data {
			l += float64(v) * (math.Sin(float64(i)) + 0.2)
		}
		return l
	}
	nn.ZeroGrads(blk.Params())
	y := blk.Forward(x, true)
	g := tensor.New(y.Shape()...)
	for i := range g.Data {
		g.Data[i] = float32(math.Sin(float64(i)) + 0.2)
	}
	gradIn := blk.Backward(g)
	analytic := append([]float32(nil), gradIn.Data...)

	const eps = 1e-2
	for i := 0; i < x.Len(); i += 7 { // sample positions to keep it fast
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		scale := math.Max(1, math.Abs(numeric))
		if math.Abs(numeric-float64(analytic[i]))/scale > 5e-2 {
			t.Fatalf("residual input grad[%d]: analytic %v numeric %v", i, analytic[i], numeric)
		}
	}
}

func TestBranchesConcatAndSplit(t *testing.T) {
	rng := tensor.NewRNG(9)
	// Two 1x1-conv branches with different widths over the same input.
	b := NewBranches("b",
		convBN("p1", 3, 2, 1, 1, 1, 1, 0, 0, rng),
		convBN("p2", 3, 5, 1, 1, 1, 1, 0, 0, rng),
	)
	x := tensor.New(2, 3, 4, 4)
	rng.FillNormal(x, 0, 1)
	y := b.Forward(x, true)
	if y.Dim(1) != 7 {
		t.Fatalf("concat channels %d, want 7", y.Dim(1))
	}
	g := b.Backward(tensor.New(y.Shape()...))
	if !g.SameShape(x) {
		t.Fatalf("branch gradIn shape %v, want %v", g.Shape(), x.Shape())
	}
}

func TestBranchesChannelOrderPreserved(t *testing.T) {
	// Identity-like branches: verify branch outputs land in channel order.
	rng := tensor.NewRNG(10)
	b := NewBranches("b",
		nn.NewSequential("p1", nn.NewAvgPool2D("ap1", 1, 1, 1, 1, 0, 0)),
		nn.NewSequential("p2", nn.NewAvgPool2D("ap2", 1, 1, 1, 1, 0, 0)),
	)
	_ = rng
	x := tensor.New(1, 2, 2, 2)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := b.Forward(x, false)
	if y.Dim(1) != 4 {
		t.Fatalf("concat channels %d, want 4", y.Dim(1))
	}
	// First two channels = x, second two channels = x again.
	for i := 0; i < 8; i++ {
		if y.Data[i] != x.Data[i] || y.Data[8+i] != x.Data[i] {
			t.Fatalf("branch concat misordered: %v", y.Data)
		}
	}
}

func TestTinyResNetTrainsOnToyProblem(t *testing.T) {
	// End-to-end sanity: a tiny ResNet must fit 16 fixed random images with
	// distinct labels in a few hundred steps of plain SGD.
	rng := tensor.NewRNG(11)
	const n, classes, size = 16, 4, 8
	net := NewSmallCNN(classes, size, rng)
	x := tensor.New(n, 3, size, size)
	rng.FillNormal(x, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % classes
	}
	ce := nn.NewSoftmaxCrossEntropy()
	params := net.Params()
	var lastLoss float64
	for step := 0; step < 150; step++ {
		nn.ZeroGrads(params)
		out := net.Forward(x, true)
		loss, err := ce.Forward(out, labels)
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = loss
		net.Backward(ce.Backward())
		for _, p := range params {
			p.Value.AddScaled(-0.1, p.Grad)
		}
	}
	if lastLoss > 0.3 {
		t.Fatalf("SmallCNN failed to fit toy problem: final loss %v", lastLoss)
	}
	out := net.Forward(x, false)
	if acc := nn.Accuracy(out, labels); acc < 0.9 {
		t.Fatalf("SmallCNN toy accuracy %v, want >= 0.9", acc)
	}
}

func TestGoogLeNetBNForward(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping full GoogLeNetBN forward")
	}
	rng := tensor.NewRNG(12)
	net := NewGoogLeNetBN(1000, rng)
	x := tensor.New(1, 3, 224, 224)
	rng.FillNormal(x, 0, 1)
	y := net.Forward(x, false)
	if y.Dim(1) != 1000 {
		t.Fatalf("GoogLeNetBN out shape %v", y.Shape())
	}
	if !y.AllFinite() {
		t.Fatal("GoogLeNetBN produced non-finite outputs")
	}
}
