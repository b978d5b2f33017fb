package simcluster

import (
	"fmt"
	"strings"

	"repro/internal/allreduce"
)

// Table is a printable experiment result: a titled grid of rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// fig56Algs are the three schemes of Figures 5-6.
var fig56Algs = []allreduce.Algorithm{allreduce.AlgDefault, allreduce.AlgRing, allreduce.AlgMultiColor}

// Fig5Row is one payload point of the allreduce-throughput comparison.
type Fig5Row struct {
	SizeMB float64
	// GBs maps algorithm -> achieved allreduce throughput (payload/time).
	GBs map[allreduce.Algorithm]float64
}

// Fig5 simulates the MPI allreduce throughput sweep of Figure 5: 16 nodes,
// CPU buffers, payload swept across sizesMB.
func (c *Cluster) Fig5(nodes int, sizesMB []float64) ([]Fig5Row, *Table, error) {
	rows := make([]Fig5Row, 0, len(sizesMB))
	tbl := &Table{
		Title:  fmt.Sprintf("Figure 5: MPI Allreduce throughput on %d nodes (GB/s)", nodes),
		Header: []string{"payload MB", "default", "ring", "multicolor"},
	}
	for _, mb := range sizesMB {
		r := Fig5Row{SizeMB: mb, GBs: map[allreduce.Algorithm]float64{}}
		cells := []string{fmt.Sprintf("%.0f", mb)}
		for _, alg := range fig56Algs {
			t, err := c.AllReduce(alg, nodes, mb*1e6)
			if err != nil {
				return nil, nil, err
			}
			gbs := mb * 1e-3 / t
			r.GBs[alg] = gbs
			cells = append(cells, fmt.Sprintf("%.2f", gbs))
		}
		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, cells)
	}
	return rows, tbl, nil
}

// Fig6Row is one learner count of the epoch-time-by-scheme comparison.
type Fig6Row struct {
	Nodes int
	Epoch map[allreduce.Algorithm]float64
}

// Fig6 simulates Figure 6: GoogLeNetBN epoch time at 8/16/32 learners under
// the three allreduce schemes (DIMD and the optimized DPT active, isolating
// the communication algorithm). Also returns the multi-color weak-scaling
// efficiency from the smallest to the largest count (paper: 90.5%).
func (c *Cluster) Fig6(nodeCounts []int) ([]Fig6Row, float64, *Table, error) {
	rows := make([]Fig6Row, 0, len(nodeCounts))
	tbl := &Table{
		Title:  "Figure 6: GoogLeNetBN epoch seconds by allreduce scheme",
		Header: []string{"nodes", "default", "ring", "multicolor"},
	}
	for _, n := range nodeCounts {
		r := Fig6Row{Nodes: n, Epoch: map[allreduce.Algorithm]float64{}}
		cells := []string{fmt.Sprintf("%d", n)}
		for _, alg := range fig56Algs {
			opts := RunOpts{DIMD: true, OptimizedDPT: true, Allreduce: alg}
			e, err := c.EpochTime(GoogLeNetBN, ImageNet1k, n, opts)
			if err != nil {
				return nil, 0, nil, err
			}
			r.Epoch[alg] = e
			cells = append(cells, fmt.Sprintf("%.1f", e))
		}
		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, cells)
	}
	eff := 1.0
	if len(nodeCounts) >= 2 {
		first, last := nodeCounts[0], nodeCounts[len(nodeCounts)-1]
		var err error
		eff, err = c.ScalingEfficiency(GoogLeNetBN, ImageNet1k, first, last, OptimizedOpts())
		if err != nil {
			return nil, 0, nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{"scaling", fmt.Sprintf("%.1f%%", eff*100), "", ""})
	}
	return rows, eff, tbl, nil
}

// ShuffleRow is one learner count of the shuffle-time studies.
type ShuffleRow struct {
	Learners  int
	Seconds   float64
	MemGBNode float64
}

// FigShuffle simulates Figures 7 (ImageNet-22k) and 8 (ImageNet-1k): flat
// shuffle time and per-node memory across learner counts.
func (c *Cluster) FigShuffle(d Dataset, learnerCounts []int) ([]ShuffleRow, *Table, error) {
	fig := "Figure 8 (ImageNet-1k)"
	if d == ImageNet22k {
		fig = "Figure 7 (ImageNet-22k)"
	}
	rows := make([]ShuffleRow, 0, len(learnerCounts))
	tbl := &Table{
		Title:  fig + ": DIMD shuffle time and memory per node",
		Header: []string{"learners", "shuffle s", "mem GB/node"},
	}
	for _, n := range learnerCounts {
		t, err := c.ShuffleTime(d, n, 1)
		if err != nil {
			return nil, nil, err
		}
		mem := c.MemoryPerNode(d, n) / 1e9
		rows = append(rows, ShuffleRow{Learners: n, Seconds: t, MemGBNode: mem})
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", t), fmt.Sprintf("%.1f", mem)})
	}
	return rows, tbl, nil
}

// GroupShuffleRow is one group count of Figure 9.
type GroupShuffleRow struct {
	Groups  int
	Seconds float64
}

// Fig9 simulates the group-based shuffle on 32 learners (ImageNet-22k)
// split into 1/4/8/16 groups. On the symmetric (non-blocking) fabric the
// times are nearly flat — the paper's observation.
func (c *Cluster) Fig9(groupCounts []int) ([]GroupShuffleRow, *Table, error) {
	const learners = 32
	rows := make([]GroupShuffleRow, 0, len(groupCounts))
	tbl := &Table{
		Title:  "Figure 9: group-based shuffle, ImageNet-22k on 32 learners",
		Header: []string{"groups", "shuffle s"},
	}
	for _, g := range groupCounts {
		t, err := c.ShuffleTime(ImageNet22k, learners, g)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, GroupShuffleRow{Groups: g, Seconds: t})
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%d", g), fmt.Sprintf("%.2f", t)})
	}
	return rows, tbl, nil
}

// ComponentRow is one (model, nodes) cell of the DIMD/DPT component studies.
type ComponentRow struct {
	Model      Model
	Nodes      int
	EpochOff   float64
	EpochOn    float64
	SpeedupPct float64
}

// FigDIMD simulates Figures 10 (ImageNet-1k) and 11 (ImageNet-22k): epoch
// time with and without DIMD, the other optimizations active.
func (c *Cluster) FigDIMD(d Dataset, nodeCounts []int) ([]ComponentRow, *Table, error) {
	fig := "Figure 10 (ImageNet-1k)"
	if d == ImageNet22k {
		fig = "Figure 11 (ImageNet-22k)"
	}
	tbl := &Table{
		Title:  fig + ": epoch seconds with/without DIMD",
		Header: []string{"model", "nodes", "no DIMD", "DIMD", "speedup"},
	}
	var rows []ComponentRow
	for _, m := range []Model{GoogLeNetBN, ResNet50} {
		for _, n := range nodeCounts {
			off := RunOpts{DIMD: false, OptimizedDPT: true, Allreduce: allreduce.AlgMultiColor}
			on := OptimizedOpts()
			eOff, err := c.EpochTime(m, d, n, off)
			if err != nil {
				return nil, nil, err
			}
			eOn, err := c.EpochTime(m, d, n, on)
			if err != nil {
				return nil, nil, err
			}
			sp := (eOff - eOn) / eOn * 100
			rows = append(rows, ComponentRow{Model: m, Nodes: n, EpochOff: eOff, EpochOn: eOn, SpeedupPct: sp})
			tbl.Rows = append(tbl.Rows, []string{string(m), fmt.Sprintf("%d", n),
				fmt.Sprintf("%.1f", eOff), fmt.Sprintf("%.1f", eOn), fmt.Sprintf("%.0f%%", sp)})
		}
	}
	return rows, tbl, nil
}

// Fig12 simulates the DPT optimization study: epoch time with the baseline
// versus the optimized Data-Parallel Table (DIMD + multi-color active).
func (c *Cluster) Fig12(nodeCounts []int) ([]ComponentRow, *Table, error) {
	tbl := &Table{
		Title:  "Figure 12: epoch seconds with/without data-parallel-table optimizations",
		Header: []string{"model", "nodes", "baseline DPT", "optimized DPT", "speedup"},
	}
	var rows []ComponentRow
	for _, m := range []Model{GoogLeNetBN, ResNet50} {
		for _, n := range nodeCounts {
			off := RunOpts{DIMD: true, OptimizedDPT: false, Allreduce: allreduce.AlgMultiColor}
			eOff, err := c.EpochTime(m, ImageNet1k, n, off)
			if err != nil {
				return nil, nil, err
			}
			eOn, err := c.EpochTime(m, ImageNet1k, n, OptimizedOpts())
			if err != nil {
				return nil, nil, err
			}
			sp := (eOff - eOn) / eOn * 100
			rows = append(rows, ComponentRow{Model: m, Nodes: n, EpochOff: eOff, EpochOn: eOn, SpeedupPct: sp})
			tbl.Rows = append(tbl.Rows, []string{string(m), fmt.Sprintf("%d", n),
				fmt.Sprintf("%.1f", eOff), fmt.Sprintf("%.1f", eOn), fmt.Sprintf("%.0f%%", sp)})
		}
	}
	return rows, tbl, nil
}

// table1Paper is the paper's Table 1 as printed: seconds per epoch of the
// open-source base and of all optimizations combined, by model and nodes.
var table1Paper = map[Model]map[int][2]float64{
	GoogLeNetBN: {8: {249, 155}, 16: {131, 76}, 32: {65, 41}},
	ResNet50:    {8: {498, 224}, 16: {251, 109}, 32: {128, 58}},
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Model      Model
	Nodes      int
	EpochBase  float64
	EpochOpt   float64
	SpeedupPct float64
}

// Table1 simulates the summary comparison: open-source baseline versus all
// optimizations combined. Beside the model's speedup it prints the paper's,
// from table1Paper, and the residual in percentage points; a node count the
// paper did not run prints "-" there.
func (c *Cluster) Table1(nodeCounts []int) ([]Table1Row, *Table, error) {
	tbl := &Table{
		Title:  "Table 1: total improvement (base = open-source Torch + stock OpenMPI)",
		Header: []string{"model", "nodes", "base s/epoch", "optimized s/epoch", "speedup", "paper speedup", "residual"},
	}
	var rows []Table1Row
	for _, m := range []Model{GoogLeNetBN, ResNet50} {
		for _, n := range nodeCounts {
			base, err := c.EpochTime(m, ImageNet1k, n, BaselineOpts())
			if err != nil {
				return nil, nil, err
			}
			opt, err := c.EpochTime(m, ImageNet1k, n, OptimizedOpts())
			if err != nil {
				return nil, nil, err
			}
			sp := (base - opt) / opt * 100
			rows = append(rows, Table1Row{Model: m, Nodes: n, EpochBase: base, EpochOpt: opt, SpeedupPct: sp})
			paper, residual := "-", "-"
			if cell, ok := table1Paper[m][n]; ok {
				psp := (cell[0] - cell[1]) / cell[1] * 100
				paper, residual = fmt.Sprintf("%.0f%%", psp), fmt.Sprintf("%+.0fpp", sp-psp)
			}
			tbl.Rows = append(tbl.Rows, []string{string(m), fmt.Sprintf("%d", n),
				fmt.Sprintf("%.0f", base), fmt.Sprintf("%.0f", opt),
				fmt.Sprintf("%.0f%%", sp), paper, residual})
		}
	}
	return rows, tbl, nil
}

// Table2Row is one system of the state-of-the-art comparison.
type Table2Row struct {
	System    string
	Hardware  string
	Epochs    int
	BatchSize int
	Minutes   float64
}

// Table2 reproduces the state-of-the-art comparison: the paper's 48-minute
// 90-epoch ResNet-50 run on 256 P100s (simulated here), against the
// published Goyal et al. and You et al. times (constants from the paper).
func (c *Cluster) Table2() ([]Table2Row, *Table, error) {
	// The record run uses batch 32 per GPU on 64 nodes (256 GPUs).
	p := c.Params
	p.BatchPerGPU = 32
	record := New(64, p)
	tt, err := record.TrainingTime(ResNet50, ImageNet1k, 64, 90, OptimizedOpts(), 0)
	if err != nil {
		return nil, nil, err
	}
	rows := []Table2Row{
		{System: "Goyal et al. [27]", Hardware: "256 P100", Epochs: 90, BatchSize: 8192, Minutes: 65},
		{System: "You et al. [35]", Hardware: "512 KNL", Epochs: 90, BatchSize: 32768, Minutes: 60},
		{System: "This work (simulated)", Hardware: "256 P100", Epochs: 90, BatchSize: 8192, Minutes: tt / 60},
	}
	tbl := &Table{
		Title:  "Table 2: comparison with state of the art (ResNet-50, ImageNet-1k)",
		Header: []string{"system", "hardware", "epochs", "batch", "minutes"},
	}
	for _, r := range rows {
		tbl.Rows = append(tbl.Rows, []string{r.System, r.Hardware, fmt.Sprintf("%d", r.Epochs),
			fmt.Sprintf("%d", r.BatchSize), fmt.Sprintf("%.1f", r.Minutes)})
	}
	return rows, tbl, nil
}
