// Package repro_test holds the benchmark harness that regenerates the
// paper's Figures 5-12 and Tables 1-2 from the simulated cluster (run with
// `go test -bench=. .`), plus ablation benches for the design choices
// docs/ARCHITECTURE.md calls out (the calibration constants and what
// multi-color's schedule costs). Each BenchmarkFigN/BenchmarkTableN prints
// the reproduced rows once (visible with -v or in bench output) and reports
// the experiment's headline metric via b.ReportMetric so regressions are
// visible in benchstat diffs. Figures 13-16 (accuracy and training error
// against time) come from ImageNet runs this tree cannot make; the
// internal/simcluster package doc names the tests that carry their claim.
package repro_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dimd"
	"repro/internal/dpt"
	"repro/internal/elastic"
	"repro/internal/imagecodec"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/simcluster"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

var (
	clusterOnce sync.Once
	cluster     *simcluster.Cluster
)

func sharedCluster() *simcluster.Cluster {
	clusterOnce.Do(func() { cluster = simcluster.New(64, simcluster.DefaultParams()) })
	return cluster
}

var logOnce sync.Map

// logTable prints a reproduced table once per process.
func logTable(b *testing.B, key string, tbl *simcluster.Table) {
	if _, loaded := logOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", tbl)
	}
}

// BenchmarkFig5AllreduceThroughput regenerates Figure 5: allreduce
// throughput of multi-color vs ring vs default OpenMPI on 16 nodes, payload
// swept 1-256 MB. Metric: multi-color GB/s at 128 MB.
func BenchmarkFig5AllreduceThroughput(b *testing.B) {
	c := sharedCluster()
	var mc float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := c.Fig5(16, []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
		if err != nil {
			b.Fatal(err)
		}
		mc = rows[7].GBs[allreduce.AlgMultiColor]
		logTable(b, "fig5", tbl)
	}
	b.ReportMetric(mc, "multicolor-GB/s@128MB")
}

// BenchmarkFig6EpochTimeByAllreduce regenerates Figure 6: GoogLeNetBN epoch
// time under the three schemes at 8/16/32 learners. Metric: multi-color
// weak-scaling efficiency (paper: 90.5%).
func BenchmarkFig6EpochTimeByAllreduce(b *testing.B) {
	c := sharedCluster()
	var eff float64
	for i := 0; i < b.N; i++ {
		_, e, tbl, err := c.Fig6([]int{8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		eff = e
		logTable(b, "fig6", tbl)
	}
	b.ReportMetric(eff*100, "scaling-eff-%")
}

// BenchmarkFig7ShuffleImagenet22k regenerates Figure 7: DIMD shuffle time
// and memory per node, ImageNet-22k. Metric: seconds at 32 learners
// (paper: 4.2 s).
func BenchmarkFig7ShuffleImagenet22k(b *testing.B) {
	c := sharedCluster()
	var at32 float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := c.FigShuffle(simcluster.ImageNet22k, []int{8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		at32 = rows[2].Seconds
		logTable(b, "fig7", tbl)
	}
	b.ReportMetric(at32, "shuffle-s@32")
}

// BenchmarkFig8ShuffleImagenet1k regenerates Figure 8 (ImageNet-1k).
func BenchmarkFig8ShuffleImagenet1k(b *testing.B) {
	c := sharedCluster()
	var at32 float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := c.FigShuffle(simcluster.ImageNet1k, []int{8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		at32 = rows[2].Seconds
		logTable(b, "fig8", tbl)
	}
	b.ReportMetric(at32, "shuffle-s@32")
}

// BenchmarkFig9GroupShuffle regenerates Figure 9: group-based shuffle on 32
// learners. Metric: max/min spread across group counts (paper: ~flat).
func BenchmarkFig9GroupShuffle(b *testing.B) {
	c := sharedCluster()
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := c.Fig9([]int{1, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		min, max := rows[0].Seconds, rows[0].Seconds
		for _, r := range rows[1:] {
			if r.Seconds < min {
				min = r.Seconds
			}
			if r.Seconds > max {
				max = r.Seconds
			}
		}
		spread = max / min
		logTable(b, "fig9", tbl)
	}
	b.ReportMetric(spread, "max/min")
}

// BenchmarkFig10DIMDImagenet1k regenerates Figure 10: epoch time ± DIMD on
// ImageNet-1k. Metric: GoogLeNetBN speedup % (paper: 33%).
func BenchmarkFig10DIMDImagenet1k(b *testing.B) {
	c := sharedCluster()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := c.FigDIMD(simcluster.ImageNet1k, []int{8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[0].SpeedupPct
		logTable(b, "fig10", tbl)
	}
	b.ReportMetric(speedup, "googlenet-speedup-%")
}

// BenchmarkFig11DIMDImagenet22k regenerates Figure 11 (ImageNet-22k).
func BenchmarkFig11DIMDImagenet22k(b *testing.B) {
	c := sharedCluster()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := c.FigDIMD(simcluster.ImageNet22k, []int{8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[0].SpeedupPct
		logTable(b, "fig11", tbl)
	}
	b.ReportMetric(speedup, "googlenet-speedup-%")
}

// BenchmarkFig12DPTOptimizations regenerates Figure 12: epoch time ± the
// data-parallel-table optimizations. Metric: ResNet-50 speedup %
// (paper: 18%).
func BenchmarkFig12DPTOptimizations(b *testing.B) {
	c := sharedCluster()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := c.Fig12([]int{8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Model == simcluster.ResNet50 && r.Nodes == 8 {
				speedup = r.SpeedupPct
			}
		}
		logTable(b, "fig12", tbl)
	}
	b.ReportMetric(speedup, "resnet-speedup-%")
}

// BenchmarkTable1TotalImprovement regenerates Table 1: base vs fully
// optimized epoch times, with the paper's speedup and the residual beside
// the model's. Metric: ResNet-50 speedup at 32 nodes (paper: 121%).
func BenchmarkTable1TotalImprovement(b *testing.B) {
	c := sharedCluster()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := c.Table1([]int{8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Model == simcluster.ResNet50 && r.Nodes == 32 {
				speedup = r.SpeedupPct
			}
		}
		logTable(b, "table1", tbl)
	}
	b.ReportMetric(speedup, "resnet-speedup-%@32n")
}

// BenchmarkTable2StateOfTheArt regenerates Table 2: the 90-epoch 256-GPU
// record run. Metric: simulated minutes (paper: 48).
func BenchmarkTable2StateOfTheArt(b *testing.B) {
	c := sharedCluster()
	var minutes float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := c.Table2()
		if err != nil {
			b.Fatal(err)
		}
		minutes = rows[2].Minutes
		logTable(b, "table2", tbl)
	}
	b.ReportMetric(minutes, "minutes/90epochs")
}

// --- Ablations (docs/ARCHITECTURE.md, "Calibration constants") ---

// BenchmarkAblationColors sweeps the multi-color k: k=1 degenerates to a
// single pipelined tree; gains should saturate once both rails are busy.
func BenchmarkAblationColors(b *testing.B) {
	c := sharedCluster()
	p := c.Params.Comm
	var out string
	var best float64
	for i := 0; i < b.N; i++ {
		out = ""
		for _, k := range []int{1, 2, 4, 8} {
			pk := p
			pk.Colors = k
			t, err := simcluster.AllReduceTime(c.Topology(), 16, allreduce.AlgMultiColor, 128e6, pk)
			if err != nil {
				b.Fatal(err)
			}
			gbs := 0.128 / t
			out += fmt.Sprintf("  k=%d: %.2f GB/s\n", k, gbs)
			if gbs > best {
				best = gbs
			}
		}
	}
	if _, loaded := logOnce.LoadOrStore("ablation-colors", true); !loaded {
		b.Logf("\nAblation: multi-color k sweep (16 nodes, 128 MB)\n%s", out)
	}
	b.ReportMetric(best, "best-GB/s")
}

// BenchmarkAblationChunkSize sweeps the pipeline segment count of the
// multi-color schedule: too few segments lose overlap, too many pay latency.
func BenchmarkAblationChunkSize(b *testing.B) {
	c := sharedCluster()
	p := c.Params.Comm
	var out string
	for i := 0; i < b.N; i++ {
		out = ""
		for _, segs := range []int{1, 2, 4, 8, 16, 32} {
			pk := p
			pk.Segments = segs
			t, err := simcluster.AllReduceTime(c.Topology(), 16, allreduce.AlgMultiColor, 128e6, pk)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("  segments=%d: %.2f GB/s\n", segs, 0.128/t)
		}
	}
	if _, loaded := logOnce.LoadOrStore("ablation-chunks", true); !loaded {
		b.Logf("\nAblation: pipeline segments (multicolor, 16 nodes, 128 MB)\n%s", out)
	}
}

// BenchmarkAblationShuffleSegments runs the real DIMD shuffle with
// Algorithm 2's m = 1..8 segments over an in-process cluster, checking the
// >32-bit-offset workaround costs nothing measurable.
func BenchmarkAblationShuffleSegments(b *testing.B) {
	pack := dimd.Build(512, func(i int) (int, []byte) {
		return i % 7, make([]byte, 256+i%128)
	})
	for _, segments := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", segments), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := mpi.NewWorld(4)
				err := w.Run(func(c *mpi.Comm) error {
					s, err := dimd.LoadPartition(pack, c.Rank(), 4)
					if err != nil {
						return err
					}
					return s.Shuffle(c, dimd.ShuffleOptions{Segments: segments, Seed: int64(i)})
				})
				w.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDPT measures the real engines: wall time, bytes moved
// and serializations for baseline vs optimized scheduling.
func BenchmarkAblationDPT(b *testing.B) {
	for _, optimized := range []bool{false, true} {
		name := "baseline"
		if optimized {
			name = "optimized"
		}
		b.Run(name, func(b *testing.B) {
			replicas := make([]nn.Layer, 4)
			for i := range replicas {
				replicas[i] = models.NewSmallCNN(4, 16, tensor.NewRNG(int64(i)))
			}
			e, err := dpt.New(replicas, optimized)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			rng := tensor.NewRNG(1)
			x := tensor.New(16, 3, 16, 16)
			rng.FillNormal(x, 0, 1)
			labels := make([]int, 16)
			for i := range labels {
				labels[i] = i % 4
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Step(x, labels); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := e.Stats()
			b.ReportMetric(float64(st.BytesMoved)/float64(st.Steps), "input-bytes/step")
			b.ReportMetric(float64(st.Serializations)/float64(st.Steps), "serializations/step")
		})
	}
}

// BenchmarkAblationBatchSize sweeps the per-GPU batch at 64 nodes: smaller
// batches shrink the compute per step while the allreduce stays constant,
// explaining the record run's choice of 32/GPU (Table 2) against Section 5's
// default of 64 — 32 still amortizes the multi-color allreduce, halves the
// per-step latency, and keeps the global batch at the 8k the Goyal schedule
// tolerates.
func BenchmarkAblationBatchSize(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = ""
		for _, batch := range []int{16, 32, 64, 128} {
			p := simcluster.DefaultParams()
			p.BatchPerGPU = batch
			c := simcluster.New(64, p)
			step, err := c.StepTime(simcluster.ResNet50, 64, simcluster.OptimizedOpts())
			if err != nil {
				b.Fatal(err)
			}
			epoch, err := c.EpochTime(simcluster.ResNet50, simcluster.ImageNet1k, 64, simcluster.OptimizedOpts())
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("  batch %3d/GPU (global %5d): %6.1f ms/step, %5.1f s/epoch, %5.1f min/90ep\n",
				batch, batch*256, step*1000, epoch, 90*epoch/60)
		}
	}
	if _, loaded := logOnce.LoadOrStore("ablation-batch", true); !loaded {
		b.Logf("\nAblation: per-GPU batch on 64 nodes (ResNet-50, all optimizations)\n%s", out)
	}
}

// BenchmarkAblationGroupsOversubscribed shows where group-based shuffle DOES
// win — the case the paper predicts ("group based shuffles are expected to
// give performance gains when locality can be exploited"): an oversubscribed
// fabric with leaf-aligned groups and no host-side pack bottleneck.
func BenchmarkAblationGroupsOversubscribed(b *testing.B) {
	// 32 hosts, 8 per leaf, ONE spine: cross-leaf bandwidth is scarce.
	topo, err := simnet.NewFatTree(32, 8, 1, 2, 11e9, 22e9, 5e-6)
	if err != nil {
		b.Fatal(err)
	}
	var flat, grouped float64
	for i := 0; i < b.N; i++ {
		perNode := 220e9 / 32
		noPack := 1e30 // isolate the network effect
		flat, err = simcluster.AllToAllVTime(topo, 32, perNode, 1, noPack)
		if err != nil {
			b.Fatal(err)
		}
		grouped, err = simcluster.AllToAllVTime(topo, 32, perNode, 4, noPack) // leaf-aligned
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, loaded := logOnce.LoadOrStore("ablation-groups", true); !loaded {
		b.Logf("\nAblation: shuffle on oversubscribed fabric: flat %.2fs vs leaf-aligned groups %.2fs (%.1fx)",
			flat, grouped, flat/grouped)
	}
	if grouped >= flat {
		b.Fatal("leaf-aligned groups should beat the flat shuffle on an oversubscribed fabric")
	}
	b.ReportMetric(flat/grouped, "group-speedup-x")
}

// --- Functional-plane microbenches (real byte movement / real compute) ---

// BenchmarkFunctionalAllReduce measures the real in-process allreduce per
// algorithm on an 8-rank world with a 4 MB payload.
func BenchmarkFunctionalAllReduce(b *testing.B) {
	for _, alg := range []allreduce.Algorithm{allreduce.AlgRing, allreduce.AlgRabenseifner, allreduce.AlgMultiColor} {
		b.Run(string(alg), func(b *testing.B) {
			const ranks, elems = 8, 1 << 20
			b.SetBytes(int64(4 * elems))
			for i := 0; i < b.N; i++ {
				w := mpi.NewWorld(ranks)
				err := w.Run(func(c *mpi.Comm) error {
					data := make([]float32, elems)
					for j := range data {
						data[j] = float32(c.Rank() + j%5)
					}
					return allreduce.AllReduce(c, data, alg, allreduce.Options{})
				})
				w.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFunctionalCompressedAllReduce measures the bucketed compressed
// allreduce per codec: real byte movement over an in-process cluster, with
// the achieved wire bytes reported so benchstat diffs show the compression
// trade-off alongside throughput.
func BenchmarkFunctionalCompressedAllReduce(b *testing.B) {
	for _, codec := range []compress.Codec{compress.Identity{}, compress.Int8{}, compress.TopK{Ratio: 0.1}} {
		b.Run(codec.Name(), func(b *testing.B) {
			const ranks, elems = 8, 1 << 20
			b.SetBytes(int64(4 * elems))
			var wireBytes int64
			for i := 0; i < b.N; i++ {
				w := mpi.NewWorld(ranks)
				err := w.Run(func(c *mpi.Comm) error {
					data := make([]float32, elems)
					for j := range data {
						data[j] = float32(c.Rank()+j%5) * 0.01
					}
					st, err := allreduce.BucketedAllReduce(c, data, codec, allreduce.CompressedOptions{})
					if c.Rank() == 0 {
						wireBytes = st.BytesSent + st.BytesRecv
					}
					return err
				})
				w.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wireBytes), "wire-bytes/op")
		})
	}
}

// BenchmarkFunctionalCodecDecode measures the toy JPEG decoder — the
// per-image cost DIMD pays instead of file I/O.
func BenchmarkFunctionalCodecDecode(b *testing.B) {
	corpus, err := dataset.New(dataset.Spec{Classes: 4, Train: 8, Val: 1, Size: 64, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	blob := corpus.EncodedImage(0, 80)
	b.SetBytes(int64(3 * 64 * 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imagecodec.Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalTrainStep measures one full Algorithm 1 iteration
// (sample, forward/backward on 2 devices, intra-node sum, allreduce over 2
// learners, update) on the real stack.
func BenchmarkFunctionalTrainStep(b *testing.B) {
	dataX, dataLabels := core.SyntheticTensorData(32, 4, 12, 5)
	w := mpi.NewWorld(2)
	defer w.Close()
	errs := make(chan error, 2)
	steps := make(chan int)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.MustComm(rank)
			replicas := []nn.Layer{
				models.NewSmallCNN(4, 12, tensor.NewRNG(int64(rank*2+1))),
				models.NewSmallCNN(4, 12, tensor.NewRNG(int64(rank*2+2))),
			}
			l, err := core.NewLearner(c, replicas,
				&core.SliceSource{X: dataX, Labels: dataLabels, Rank: rank, Ranks: 2},
				3, 12, 12,
				core.Config{BatchPerDevice: 4, Allreduce: allreduce.AlgMultiColor, Schedule: sgd.Const(0.01), SGD: sgd.DefaultConfig()})
			if err != nil {
				errs <- err
				return
			}
			defer l.Close()
			for range steps {
				if _, err := l.Step(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps <- i
		steps <- i
	}
	close(steps)
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalOverlapPipeline measures the reactive gradient pipeline
// against the phased bucketed allreduce on a comm-heavy latency-injected
// cluster: same job, same bytes, different schedule. Reported metrics are
// per-step wall times and the overlap efficiency (overlapped step time over
// the phased compute+comm sum; < 1 means communication was hidden under
// backward compute).
func BenchmarkFunctionalOverlapPipeline(b *testing.B) {
	const learners, classes, size, batch, steps = 2, 8, 24, 32, 4
	link := mpi.LinkProfile{Latency: 8 * time.Millisecond, BytesPerSec: 64 << 20}
	dataX, dataLabels := core.SyntheticTensorData(batch*learners, classes, size, 23)
	run := func(overlap bool) (stepS, computeS, commS float64) {
		start := time.Now()
		res, err := elastic.Run(elastic.Config{
			Identities:  learners,
			GlobalBatch: learners * batch,
			Steps:       steps,
			NewWorld:    func(n int) (*mpi.World, error) { return mpi.NewLatencyWorld(n, link), nil },
			NewReplica:  func(seed int64) nn.Layer { return core.OverlapBenchModel(classes, size, 900+seed) },
			NewSource:   core.SliceSources(dataX, dataLabels),
			InputC:      3, InputH: size, InputW: size,
			Learner: core.Config{
				Allreduce:       allreduce.AlgMultiColor,
				Schedule:        sgd.Const(0.05),
				SGD:             sgd.DefaultConfig(),
				Compression:     compress.Config{Codec: "none", BucketFloats: 1024},
				Overlap:         overlap,
				OverlapInFlight: 16,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		ph := res.Ranks[0].Phases
		return time.Since(start).Seconds() / steps, ph.Compute / steps, ph.AllReduce / steps
	}
	var eff, phasedStep, overlapStep float64
	for i := 0; i < b.N; i++ {
		var computeS, commS float64
		phasedStep, computeS, commS = run(false)
		overlapStep, _, _ = run(true)
		if sum := computeS + commS; sum > 0 {
			eff = overlapStep / sum
		}
	}
	b.ReportMetric(1e3*phasedStep, "phased-ms/step")
	b.ReportMetric(1e3*overlapStep, "overlapped-ms/step")
	b.ReportMetric(eff, "overlap-efficiency")
}

// BenchmarkFunctionalConvForward measures the im2col+GEMM convolution on a
// ResNet-stage-sized layer.
func BenchmarkFunctionalConvForward(b *testing.B) {
	rng := tensor.NewRNG(1)
	conv := nn.NewConv2D("c", 64, 64, 3, 3, 1, 1, 1, 1, nn.ConvOpts{}, rng)
	x := tensor.New(4, 64, 28, 28)
	rng.FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}
