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

	"repro/internal/allreduce"
	"repro/internal/dimd"
	"repro/internal/mpi"
	"repro/internal/simcluster"
	"repro/internal/simnet"
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
