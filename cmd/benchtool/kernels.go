package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// gemmResult is one GEMM shape's throughput at one worker (gflops_serial)
// and on the full pool (gflops_pool); parallel_gain is their ratio, gated at
// >= 2x for the 256^3 shape on >= 4 CPUs.
type gemmResult struct {
	TransA        bool    `json:"trans_a,omitempty"`
	TransB        bool    `json:"trans_b"`
	M             int     `json:"m"`
	NDim          int     `json:"n"`
	KDim          int     `json:"k"`
	GFLOPSSerial  float64 `json:"gflops_serial"`
	GFLOPSPool    float64 `json:"gflops_pool"`
	ParallelGain  float64 `json:"parallel_gain"`
	IterationsRun int     `json:"iterations"`
}

// convResult is one more convolution geometry's forward+backward step, timed
// like the headline conv row: at one worker and on the full pool.
type convResult struct {
	Name         string  `json:"name"`
	Batch        int     `json:"batch"`
	InC          int     `json:"in_c"`
	OutC         int     `json:"out_c"`
	Size         int     `json:"size"`
	Kernel       int     `json:"kernel"`
	Stride       int     `json:"stride"`
	MsSerial     float64 `json:"ms_serial"`
	MsPool       float64 `json:"ms_pool"`
	ImagesPerSec float64 `json:"images_per_sec"`
}

// layerResult is one pass of a layer between the convolutions, in GB/s of
// input float bytes, at one worker and on the full pool.
type layerResult struct {
	Name      string  `json:"name"`
	GBsSerial float64 `json:"gb_s_serial"`
	GBsPool   float64 `json:"gb_s_pool"`
}

// kernelsReport is the JSON schema of the kernels workload; BENCH_kernels.json
// at the repo root is one of these, and CI gates on it. Throughput numbers are
// all higher-is-better, which is what the baseline check assumes.
type kernelsReport struct {
	Workload   string `json:"workload"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"workers"`
	// GemmKernel is the inner kernel tensor.Gemm chose at init ("avx2" or
	// "portable"). Together with gomaxprocs it says what a report may be
	// compared against: the baseline gate refuses a run that differs in either.
	GemmKernel string `json:"gemm_kernel"`

	Gemm []gemmResult `json:"gemm"`

	// Conv step time (forward+backward, ms) at 1 worker vs the full pool,
	// and the resulting speedup — the headline number the issue gates on.
	ConvBatch        int     `json:"conv_batch"`
	ConvMsSerial     float64 `json:"conv_ms_serial"`
	ConvMsPool       float64 `json:"conv_ms_pool"`
	ConvSpeedup      float64 `json:"conv_speedup"`
	ConvThroughputIS float64 `json:"conv_images_per_sec"`
	// ConvShapes are the bias-free geometries watched beside it: the 3×3
	// stride-1 shape that dominates the conv_phased benchmark workload and
	// the four stride-2 layers of the same net — the two 3×3 stage
	// transitions and their 1×1 projections.
	ConvShapes []convResult `json:"conv_shapes"`
	// Layers are the vector kernels under ReLU (kernels.RectifyInto forward,
	// GateInto backward) and the 2×2 max pool (kernels.MaxPool2x2), through
	// their layers on a batch-16 activation of a small CNN's first block.
	Layers []layerResult `json:"layers"`

	// Codec throughputs in GB/s of uncompressed float bytes processed.
	// Encodes are the one serial AppendCompress the Stream makes per bucket.
	Int8EncodeGBs     float64 `json:"int8_encode_gbs"`
	Int8DecodeGBs     float64 `json:"int8_decode_gbs"`
	Int8DecodeAddGBs  float64 `json:"int8_decode_add_gbs"`
	IdentityAddGBs    float64 `json:"identity_decode_add_gbs"`
	TopKEncodeGBs     float64 `json:"topk_encode_gbs"`
	BF16EncodeGBs     float64 `json:"bf16_encode_gbs"`
	BF16DecodeAddGBs  float64 `json:"bf16_decode_add_gbs"`
	CodecBucketFloats int     `json:"codec_bucket_floats"`

	// The step's tail on the same bucket, GB/s of float bytes per operand:
	// the receive-reduce add (kernels.AddInto), the one-pass SGD update
	// (kernels.MomentumStep) and the float wire codec (mpi.EncodeFloat32s
	// then DecodeFloat32s, counting both directions).
	VecAddGBs     float64 `json:"vec_add_gb_s"`
	SGDStepGBs    float64 `json:"sgd_step_gb_s"`
	FloatCodecGBs float64 `json:"float_codec_gb_s"`
}

// timeIt runs fn repeatedly until the total exceeds a floor (after one
// warmup call) and returns the mean seconds per call.
func timeIt(fn func()) (secs float64, iters int) {
	fn() // warmup: fault in scratch, populate pools
	const floor = 150 * time.Millisecond
	var elapsed time.Duration
	for elapsed < floor {
		start := time.Now()
		fn()
		elapsed += time.Since(start)
		iters++
	}
	return elapsed.Seconds() / float64(iters), iters
}

// serialAndPool times fn at one worker, then on the full pool — the
// production hot path.
func serialAndPool(fn func()) (serial, pool float64, iters int) {
	prev := kernels.SetWorkers(1)
	serial, _ = timeIt(fn)
	kernels.SetWorkers(prev)
	pool, iters = timeIt(fn)
	return serial, pool, iters
}

// kernelsMaxRegress is the gate: a throughput may shrink by this factor
// under the committed baseline before the run fails.
const kernelsMaxRegress = 2.0

// comparable refuses a baseline recorded at another pool width or through
// another GEMM kernel: throughput then differs by more than the gate's
// tolerance for reasons that are not regressions.
func (rep *kernelsReport) comparable(base *kernelsReport, path string) error {
	if base.GOMAXPROCS != rep.GOMAXPROCS || base.GemmKernel != rep.GemmKernel {
		return fmt.Errorf("benchtool: kernels baseline %s was recorded at gomaxprocs=%d gemm_kernel=%q, this run is gomaxprocs=%d gemm_kernel=%q: not comparable (run with GOMAXPROCS=%d on a machine whose Gemm runs the %q kernel, or re-record with -json %s)",
			path, base.GOMAXPROCS, base.GemmKernel, rep.GOMAXPROCS, rep.GemmKernel, base.GOMAXPROCS, base.GemmKernel, path)
	}
	return nil
}

// kernelsWorkload measures compute-kernel throughput: GEMM GFLOP/s at
// representative shapes, conv forward+backward step time at one worker vs
// the full pool, and codec encode/decode/fused-accumulate bandwidth. When
// baselinePath is set, the run is gated against that report
// (BENCH_kernels.json in CI). The conv speedup itself is enforced only on
// machines with >= 4 CPUs, where the >= 2x parallel win is actually
// available.
func kernelsWorkload(jsonPath, baselinePath string) error {
	rep := kernelsReport{
		Workload:   "kernels",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    kernels.Workers(),
		GemmKernel: tensor.GemmKernel(),
	}

	// Read the baseline before measuring anything, so a pair that cannot be
	// compared is refused in a second, not after the run.
	var base *kernelsReport
	if baselinePath != "" {
		base = new(kernelsReport)
		if err := readReport(baselinePath, base); err != nil {
			return err
		}
		if err := rep.comparable(base, baselinePath); err != nil {
			return err
		}
	}

	// GEMM: a square compute-bound shape, the short-wide im2col shape conv
	// lowers to (outC x outH*outW with a small K) — both through the axpy
	// kernel — a dense layer's forward product, through the dot kernel, and
	// the same layer's weight gradient at batch 4: k is so short that the
	// product is one pass over C, stored by the axpy kernel at beta 0.
	shapes := []struct {
		transA, transB bool
		m, n, k        int
	}{
		{false, false, 256, 256, 256},
		{false, false, 16, 784, 288}, // conv: 16 outC, 28x28 output, 8*6*6 columns
		{false, true, 16, 384, 768},  // linear forward: batch 16, 768 -> 384
		{true, false, 384, 768, 4},   // linear dW = gT*x: 768 -> 384 at batch 4 (wide_multicolor's fc1)
	}
	for _, sh := range shapes {
		a := make([]float32, sh.m*sh.k)
		b := make([]float32, sh.k*sh.n)
		c := make([]float32, sh.m*sh.n)
		for i := range a {
			a[i] = float32(i%13) * 0.25
		}
		for i := range b {
			b[i] = float32(i%7) * 0.5
		}
		flops := 2 * float64(sh.m) * float64(sh.n) * float64(sh.k)

		sSerial, sPool, iters := serialAndPool(func() { tensor.Gemm(sh.transA, sh.transB, sh.m, sh.n, sh.k, 1, a, b, 0, c) })

		r := gemmResult{
			TransA: sh.transA, TransB: sh.transB, M: sh.m, NDim: sh.n, KDim: sh.k,
			GFLOPSSerial:  flops / sSerial / 1e9,
			GFLOPSPool:    flops / sPool / 1e9,
			IterationsRun: iters,
		}
		r.ParallelGain = r.GFLOPSPool / r.GFLOPSSerial
		rep.Gemm = append(rep.Gemm, r)
	}

	// Conv forward+backward: the batch-parallel hot path. One layer, reused
	// scratch — the steady-state per-step cost.
	rng := tensor.NewRNG(5)
	convStep := func(batch, inC, outC, size, k, stride int, bias bool) (sSerial, sPool float64) {
		conv := nn.NewConv2D("bench", inC, outC, k, k, stride, stride, k/2, k/2, nn.ConvOpts{Bias: bias}, rng)
		x := tensor.New(batch, inC, size, size)
		rng.FillNormal(x, 0, 1)
		sSerial, sPool, _ = serialAndPool(func() { conv.Backward(conv.Forward(x, true)) })
		return sSerial, sPool
	}
	const batch = 16
	rep.ConvBatch = batch
	sSerial, sPool := convStep(batch, 8, 16, 24, 3, 1, true)
	rep.ConvMsSerial = 1e3 * sSerial
	rep.ConvMsPool = 1e3 * sPool
	rep.ConvSpeedup = sSerial / sPool
	rep.ConvThroughputIS = float64(batch) / sPool
	for _, sh := range []convResult{
		{Name: "conv_phased 16->16 3x3 on 16x16", Batch: 4, InC: 16, OutC: 16, Size: 16, Kernel: 3, Stride: 1},
		{Name: "conv_phased 16->32 3x3/2 on 16x16", Batch: 4, InC: 16, OutC: 32, Size: 16, Kernel: 3, Stride: 2},
		{Name: "conv_phased 32->64 3x3/2 on 8x8", Batch: 4, InC: 32, OutC: 64, Size: 8, Kernel: 3, Stride: 2},
		{Name: "conv_phased 16->32 1x1/2 on 16x16", Batch: 4, InC: 16, OutC: 32, Size: 16, Kernel: 1, Stride: 2},
		{Name: "conv_phased 32->64 1x1/2 on 8x8", Batch: 4, InC: 32, OutC: 64, Size: 8, Kernel: 1, Stride: 2},
	} {
		sSerial, sPool := convStep(sh.Batch, sh.InC, sh.OutC, sh.Size, sh.Kernel, sh.Stride, false)
		sh.MsSerial, sh.MsPool = 1e3*sSerial, 1e3*sPool
		sh.ImagesPerSec = float64(sh.Batch) / sPool
		rep.ConvShapes = append(rep.ConvShapes, sh)
	}

	// The layers between the convolutions, on what a 3→16 convolution of a
	// batch of sixteen 24×24 images hands them.
	act := tensor.New(16, 16, 24, 24)
	rng.FillNormal(act, 0, 1)
	relu, pool := nn.NewReLU("bench"), nn.NewMaxPool2D("bench", 2, 2, 2, 2, 0, 0)
	actGB := 4 * float64(act.Len()) / 1e9
	for _, l := range []struct {
		name string
		pass func()
	}{
		{"relu_fwd", func() { relu.Forward(act, true) }},
		{"relu_bwd", func() { relu.Backward(act) }}, // gated on the output relu_fwd left

		{"maxpool2x2", func() { pool.Forward(act, true) }},
	} {
		sSerial, sPool, _ := serialAndPool(l.pass)
		rep.Layers = append(rep.Layers, layerResult{Name: l.name, GBsSerial: actGB / sSerial, GBsPool: actGB / sPool})
	}

	// Codecs on a 1M-float bucket; GB/s counts uncompressed float bytes.
	const bucket = 1 << 20
	rep.CodecBucketFloats = bucket
	src := make([]float32, bucket)
	for i := range src {
		src[i] = float32(i%251)*0.013 - 1.6
	}
	gb := 4 * float64(bucket) / 1e9
	encodeGBs := func(c compress.Codec) float64 {
		scratch := make([]byte, 0, c.MaxCompressedSize(bucket))
		s, _ := timeIt(func() { c.AppendCompress(scratch[:0], src) })
		return gb / s
	}
	dst := make([]float32, bucket)
	decodeAddGBs := func(c compress.Codec) float64 {
		payload := compress.Encode(c, src)
		s, _ := timeIt(func() { _ = c.DecompressAdd(dst, payload) })
		return gb / s
	}
	rep.Int8EncodeGBs = encodeGBs(compress.Int8{})
	payload := compress.Encode(compress.Int8{}, src)
	s, _ := timeIt(func() { _ = compress.Int8{}.Decompress(dst, payload) })
	rep.Int8DecodeGBs = gb / s
	rep.Int8DecodeAddGBs = decodeAddGBs(compress.Int8{})
	rep.IdentityAddGBs = decodeAddGBs(compress.Identity{})
	rep.TopKEncodeGBs = encodeGBs(compress.TopK{Ratio: 0.1})
	rep.BF16EncodeGBs = encodeGBs(compress.BFloat16{})
	rep.BF16DecodeAddGBs = decodeAddGBs(compress.BFloat16{})

	s, _ = timeIt(func() { kernels.AddInto(dst, src) })
	rep.VecAddGBs = gb / s
	weights, velocity := make([]float32, bucket), make([]float32, bucket)
	s, _ = timeIt(func() { kernels.MomentumStep(weights, velocity, src, 0.25, 1e-4, 0.9, 0.005) })
	rep.SGDStepGBs = gb / s
	wire := make([]byte, 4*bucket)
	s, _ = timeIt(func() {
		mpi.EncodeFloat32s(wire, src)
		mpi.DecodeFloat32s(dst, wire)
	})
	rep.FloatCodecGBs = 2 * gb / s

	fmt.Printf("kernels workload: GOMAXPROCS=%d cpus=%d pool workers=%d gemm kernel=%s\n", rep.GOMAXPROCS, rep.NumCPU, rep.Workers, rep.GemmKernel)
	for _, g := range rep.Gemm {
		op := "A*B "
		if g.TransB {
			op = "A*Bt"
		} else if g.TransA {
			op = "At*B"
		}
		fmt.Printf("  gemm %s %4dx%4dx%4d: %7.2f GFLOP/s serial, %7.2f pool (%.2fx)\n",
			op, g.M, g.NDim, g.KDim, g.GFLOPSSerial, g.GFLOPSPool, g.ParallelGain)
	}
	fmt.Printf("  conv fwd+bwd (batch %d): %7.2f ms serial, %7.2f ms pool (%.2fx, %.0f images/s)\n",
		batch, rep.ConvMsSerial, rep.ConvMsPool, rep.ConvSpeedup, rep.ConvThroughputIS)
	for _, c := range rep.ConvShapes {
		fmt.Printf("  %s (batch %d): %7.3f ms serial, %7.3f ms pool (%.0f images/s)\n",
			c.Name, c.Batch, c.MsSerial, c.MsPool, c.ImagesPerSec)
	}
	for _, l := range rep.Layers {
		fmt.Printf("  %-10s %7.2f GB/s serial, %7.2f pool\n", l.Name, l.GBsSerial, l.GBsPool)
	}
	fmt.Printf("  int8: encode %.2f GB/s, decode %.2f GB/s, decode+add %.2f GB/s\n",
		rep.Int8EncodeGBs, rep.Int8DecodeGBs, rep.Int8DecodeAddGBs)
	fmt.Printf("  identity decode+add %.2f GB/s, topk(0.1) encode %.2f GB/s\n",
		rep.IdentityAddGBs, rep.TopKEncodeGBs)
	fmt.Printf("  bf16: encode %.2f GB/s, decode+add %.2f GB/s\n", rep.BF16EncodeGBs, rep.BF16DecodeAddGBs)
	fmt.Printf("  vector add %.2f GB/s, sgd momentum step %.2f GB/s, float codec %.2f GB/s\n",
		rep.VecAddGBs, rep.SGDStepGBs, rep.FloatCodecGBs)

	if err := writeReport(jsonPath, "BENCH_kernels.*.json", rep); err != nil {
		return err
	}

	if rep.NumCPU >= 4 && rep.GOMAXPROCS >= 4 {
		if rep.ConvSpeedup < 2 {
			return fmt.Errorf("benchtool: conv fwd+bwd speedup %.2fx at %d procs, want >= 2x",
				rep.ConvSpeedup, rep.GOMAXPROCS)
		}
		// The parallel GEMM win at the compute-bound 256^3 shape: pool
		// throughput over one worker.
		if g := rep.Gemm[0]; g.ParallelGain < 2 {
			return fmt.Errorf("benchtool: gemm %dx%dx%d pool gain %.2fx over one worker at %d procs, want >= 2x",
				g.M, g.NDim, g.KDim, g.ParallelGain, rep.GOMAXPROCS)
		}
	}

	if base != nil {
		return rep.gate(base)
	}
	return nil
}

// gate fails if any throughput fell below base's by more than
// kernelsMaxRegress. Every gated number is higher-is-better.
func (rep *kernelsReport) gate(base *kernelsReport) error {
	type metric struct {
		name      string
		got, want float64
	}
	var ms []metric
	for i := 0; i < min(len(rep.Gemm), len(base.Gemm)); i++ {
		ms = append(ms, metric{fmt.Sprintf("gemm[%d] GFLOP/s", i), rep.Gemm[i].GFLOPSPool, base.Gemm[i].GFLOPSPool})
	}
	for i := 0; i < min(len(rep.ConvShapes), len(base.ConvShapes)); i++ {
		ms = append(ms, metric{rep.ConvShapes[i].Name + " images/s", rep.ConvShapes[i].ImagesPerSec, base.ConvShapes[i].ImagesPerSec})
	}
	for i := 0; i < min(len(rep.Layers), len(base.Layers)); i++ {
		// The better of the two columns: microseconds of memory-bound work
		// either forks or does not, so scheduling noise moves one column
		// at a time, a slower kernel both.
		l, b := rep.Layers[i], base.Layers[i]
		ms = append(ms, metric{l.Name + " GB/s", max(l.GBsSerial, l.GBsPool), max(b.GBsSerial, b.GBsPool)})
	}
	ms = append(ms,
		metric{"conv images/s", rep.ConvThroughputIS, base.ConvThroughputIS},
		metric{"int8 encode GB/s", rep.Int8EncodeGBs, base.Int8EncodeGBs},
		metric{"int8 decode GB/s", rep.Int8DecodeGBs, base.Int8DecodeGBs},
		metric{"int8 decode+add GB/s", rep.Int8DecodeAddGBs, base.Int8DecodeAddGBs},
		metric{"identity decode+add GB/s", rep.IdentityAddGBs, base.IdentityAddGBs},
		metric{"topk encode GB/s", rep.TopKEncodeGBs, base.TopKEncodeGBs},
		metric{"bf16 encode GB/s", rep.BF16EncodeGBs, base.BF16EncodeGBs},
		metric{"bf16 decode+add GB/s", rep.BF16DecodeAddGBs, base.BF16DecodeAddGBs},
		metric{"vector add GB/s", rep.VecAddGBs, base.VecAddGBs},
		metric{"sgd step GB/s", rep.SGDStepGBs, base.SGDStepGBs},
		metric{"float codec GB/s", rep.FloatCodecGBs, base.FloatCodecGBs},
	)
	for _, m := range ms {
		if m.want > 0 && m.got < m.want/kernelsMaxRegress {
			return fmt.Errorf("benchtool: %s regressed: %.2f vs baseline %.2f (limit %.1fx)",
				m.name, m.got, m.want, kernelsMaxRegress)
		}
		fmt.Printf("  %-24s %8.2f within %.1fx of baseline %.2f\n", m.name, m.got, kernelsMaxRegress, m.want)
	}
	return nil
}
