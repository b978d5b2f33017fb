package core

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// SmallBNFreeCNN builds the batch-norm-free reference CNN shared by the
// functional experiments and the benchtool compress workload. BN computes
// statistics per device partition, so cross-configuration comparisons
// (serial vs distributed, codec vs codec) need a BN-free model; keeping one
// definition keeps those runs comparable.
func SmallBNFreeCNN(classes, size int, seed int64) nn.Layer {
	rng := tensor.NewRNG(seed)
	final := size / 2
	return nn.NewSequential("bnfree",
		nn.NewConv2D("c1", 3, 6, 3, 3, 1, 1, 1, 1, nn.ConvOpts{Bias: true}, rng),
		nn.NewReLU("r1"),
		nn.NewMaxPool2D("p1", 2, 2, 2, 2, 0, 0),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", 6*final*final, classes, rng),
	)
}

// OverlapBenchModel builds the BN-free two-conv CNN shared by the overlap
// harnesses (benchtool's overlap row and the root overlap benchmark): enough
// conv compute that backward takes real time per layer — giving the
// reactive pipeline something to hide communication under — while the fc
// layer holds most of the parameters, so the bulk of the gradient becomes
// ready at the very start of backward. One definition keeps the two
// harnesses' reported numbers comparable.
func OverlapBenchModel(classes, size int, seed int64) nn.Layer {
	rng := tensor.NewRNG(seed)
	final := size / 4
	return nn.NewSequential("overlapcnn",
		nn.NewConv2D("c1", 3, 8, 3, 3, 1, 1, 1, 1, nn.ConvOpts{Bias: true}, rng),
		nn.NewReLU("r1"),
		nn.NewMaxPool2D("p1", 2, 2, 2, 2, 0, 0),
		nn.NewConv2D("c2", 8, 16, 3, 3, 1, 1, 1, 1, nn.ConvOpts{Bias: true}, rng),
		nn.NewReLU("r2"),
		nn.NewMaxPool2D("p2", 2, 2, 2, 2, 0, 0),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", 16*final*final, classes, rng),
	)
}

// AllocBenchModel builds the parameter-heavy, compute-light MLP behind
// benchtool's allocs workload: the ~400k-float gradient dwarfs the few
// dense-layer activations, so per-step allocation counts measure the
// communication hot path (bucketing, codecs, transport) rather than conv
// compute. Shared so the committed BENCH_alloc.json baseline and any local
// rerun measure the same model.
func AllocBenchModel(classes, size int, seed int64) nn.Layer {
	rng := tensor.NewRNG(seed)
	in := 3 * size * size
	return nn.NewSequential("allocmlp",
		nn.NewFlatten("fl"),
		nn.NewLinear("fc1", in, 384, rng),
		nn.NewReLU("r1"),
		nn.NewLinear("fc2", 384, 256, rng),
		nn.NewReLU("r2"),
		nn.NewLinear("fc3", 256, classes, rng),
	)
}

// ShardBenchModel builds the many-equal-layer MLP behind benchtool's shard
// workload. Its parameter mass is spread over ten same-sized 192×192 dense
// layers (the input is flattened to 192 at size 8, so the first layer is no
// bigger than the rest) — whole-parameter contiguous shards therefore
// balance across ranks, and per-rank optimizer-state bytes genuinely scale
// as ~1/world-size, which is the quantity the shard workload measures. A
// model dominated by one giant tensor (AllocBenchModel's fc1) cannot show
// that scaling however the shards are cut.
func ShardBenchModel(classes, size int, seed int64) nn.Layer {
	rng := tensor.NewRNG(seed)
	const width = 192
	in := 3 * size * size
	layers := []nn.Layer{nn.NewFlatten("fl"), nn.NewLinear("fc0", in, width, rng), nn.NewReLU("r0")}
	for i := 1; i <= 9; i++ {
		layers = append(layers,
			nn.NewLinear(fmt.Sprintf("fc%d", i), width, width, rng),
			nn.NewReLU(fmt.Sprintf("r%d", i)))
	}
	layers = append(layers, nn.NewLinear("out", width, classes, rng))
	return nn.NewSequential("shardmlp", layers...)
}

// SyntheticTensorData materializes a deterministic labelled dataset of n
// size×size RGB images directly as tensors (bypassing the codec) for fast
// functional experiments: class-dependent blob patterns a small CNN can
// learn, generated identically on every rank from the seed.
func SyntheticTensorData(n, classes, size int, seed int64) (*tensor.Tensor, []int) {
	rng := tensor.NewRNG(seed)
	x := tensor.New(n, 3, size, size)
	labels := make([]int, n)
	plane := size * size
	for i := 0; i < n; i++ {
		class := i % classes
		labels[i] = class
		classRng := tensor.NewRNG(seed*7919 + int64(class))
		cx := classRng.Float64()*float64(size-4) + 2
		cy := classRng.Float64()*float64(size-4) + 2
		amp := 0.5 + classRng.Float64()
		for ch := 0; ch < 3; ch++ {
			chScale := float32(0.3 + 0.35*float64(ch)*classRng.Float64())
			base := i*3*plane + ch*plane
			for y := 0; y < size; y++ {
				for xx := 0; xx < size; xx++ {
					dx := float64(xx) - cx
					dy := float64(y) - cy
					v := amp * gauss(dx, dy, float64(size)/4)
					noise := (rng.Float64() - 0.5) * 0.3
					x.Data[base+y*size+xx] = chScale*float32(v) + float32(noise)
				}
			}
		}
	}
	return x, labels
}

func gauss(dx, dy, s float64) float64 {
	r2 := (dx*dx + dy*dy) / (2 * s * s)
	if r2 > 30 { // clamp: exp underflows to denormals beyond this
		return 0
	}
	return math.Exp(-r2)
}
