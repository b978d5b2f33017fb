package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/simevent"
	"repro/internal/simnet"
)

// simScale is one swept cluster size.
type simScale struct {
	Nodes        int `json:"nodes"`
	RanksPerNode int `json:"ranks_per_node"`
}

// simEntry is one (scale, collective, codec) prediction.
type simEntry struct {
	Nodes           int     `json:"nodes"`
	RanksPerNode    int     `json:"ranks_per_node"`
	Collective      string  `json:"collective"`
	Codec           string  `json:"codec"`
	Messages        int     `json:"messages"`
	PredictedStepMS float64 `json:"predicted_step_ms"`
	IntraBytes      int64   `json:"intra_bytes"`
	InterBytes      int64   `json:"inter_bytes"`
	TraceHash       string  `json:"trace_hash"`
	// MaxLinkUtilization and HotLinks surface fabric load: busy time over
	// makespan per traversed link, the top entries listed. The fabric is
	// charged, so no link can exceed 1; the links near 1 are what bound the
	// step.
	MaxLinkUtilization float64             `json:"max_link_utilization"`
	HotLinks           []simevent.LinkUtil `json:"hot_links,omitempty"`
	SimWallMS          float64             `json:"sim_wall_ms"`
}

// simReport is the JSON schema of the sim sweep.
type simReport struct {
	Workload     string     `json:"workload"`
	GradFloats   int        `json:"grad_floats"`
	BucketFloats int        `json:"bucket_floats"`
	Seed         uint64     `json:"seed"`
	HostOverhead string     `json:"host_overhead"`
	Scales       []simScale `json:"scales"`
	Entries      []simEntry `json:"entries"`
	WallSeconds  float64    `json:"wall_seconds"`
}

// simTopKRatio is the kept fraction of the top-k codec wherever the
// simulator sizes or measures it.
const simTopKRatio = 0.1

// simWorkload sweeps the discrete-event simulator over cluster scales ×
// collectives × codecs on the calibrated Minsky fabric (full speed, no
// slowdown, no per-message host overhead: these are the pure link model's
// predictions for the real cluster) and reports predicted step time,
// per-link-class traffic, and the most loaded links. It fails if any link
// reports more traffic than its bandwidth could carry in the predicted
// step.
func simWorkload(nodes, ranksPerNode int, seed uint64, jsonPath string) error {
	const gradFloats, bucketFloats = 1 << 20, 16384
	codecs := []string{"none", "int8", "topk"}
	if nodes < 1 || ranksPerNode < 1 {
		return fmt.Errorf("benchtool: sim needs positive -nodes and -ranks (got %d×%d)", nodes, ranksPerNode)
	}
	// 2×4 and 16×ranks ride along below the largest scale; a small -nodes
	// can collide with them.
	var scales []simScale
	for _, s := range []simScale{{2, 4}, {16, ranksPerNode}, {nodes, ranksPerNode}} {
		if s.Nodes <= nodes && !slices.Contains(scales, s) {
			scales = append(scales, s)
		}
	}

	rep := simReport{
		Workload:     "sim",
		GradFloats:   gradFloats,
		BucketFloats: bucketFloats,
		Seed:         seed,
		HostOverhead: "0s",
		Scales:       scales,
	}
	start := time.Now()
	fmt.Printf("sim workload: grad=%d floats bucket=%d floats codecs=%v seed=%d\n", gradFloats, bucketFloats, codecs, seed)
	for _, sc := range scales {
		fabric := simnet.MinskyFabric(sc.Nodes)
		intra, inter, err := fabric.LinkProfiles(1)
		if err != nil {
			return err
		}
		topo := mpi.UniformTopology(sc.Nodes*sc.RanksPerNode, sc.RanksPerNode)
		for _, col := range simevent.Collectives() {
			if col == simevent.AllToAllV {
				continue // the shuffle's exchange, not a gradient exchange
			}
			// The raw-wire collectives are codec-independent, so sweep them
			// once under the "none" label.
			cs := codecs
			if !col.Compressed() {
				cs = []string{"none"}
			}
			for _, codecName := range cs {
				codec, err := compress.New(compress.Config{Codec: codecName, TopKRatio: simTopKRatio})
				if err != nil {
					return err
				}
				scheds, err := simevent.BuildSchedule(simevent.Spec{
					Collective: col, Topo: topo, Elems: gradFloats,
					BucketFloats: bucketFloats, Codec: codec,
				})
				if err != nil {
					return err
				}
				t0 := time.Now()
				res, err := simevent.Run(scheds, simevent.Config{
					Topo: topo, Intra: intra, Inter: inter,
					JitterFrac: 0, Seed: seed,
					Fabric: fabric,
				})
				if err != nil {
					return err
				}
				entry := simEntry{
					Nodes: sc.Nodes, RanksPerNode: sc.RanksPerNode,
					Collective: string(col), Codec: codec.Name(),
					Messages:        res.Messages,
					PredictedStepMS: 1e3 * res.Makespan.Seconds(),
					IntraBytes:      res.Traffic.IntraBytes,
					InterBytes:      res.Traffic.InterBytes,
					TraceHash:       fmt.Sprintf("%016x", res.TraceHash),
					SimWallMS:       1e3 * time.Since(t0).Seconds(),
				}
				links := append([]simevent.LinkUtil(nil), res.Links...)
				sort.Slice(links, func(i, j int) bool { return links[i].Utilization > links[j].Utilization })
				if len(links) > 0 {
					entry.MaxLinkUtilization = links[0].Utilization
					if len(links) > 5 {
						links = links[:5]
					}
					entry.HotLinks = links
				}
				rep.Entries = append(rep.Entries, entry)
				fmt.Printf("  %2d×%d %-13s %-5s %8d msgs  step %9.3f ms  inter %12d B  maxutil %.2f  (sim %6.0f ms)\n",
					sc.Nodes, sc.RanksPerNode, entry.Collective, entry.Codec, entry.Messages,
					entry.PredictedStepMS, entry.InterBytes, entry.MaxLinkUtilization, entry.SimWallMS)
				if entry.MaxLinkUtilization > 1 {
					return fmt.Errorf("benchtool: %s is %.4f× busier than the predicted step allows — the fabric is not being charged",
						links[0].Name, entry.MaxLinkUtilization)
				}
			}
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()
	fmt.Printf("  swept %d configurations in %.2f s\n", len(rep.Entries), rep.WallSeconds)
	return writeReport(jsonPath, "BENCH_sim.*.json", rep)
}

// simCalibrateReport is the JSON schema of the sim-calibrate gate (the
// sim.json CI artifact).
type simCalibrateReport struct {
	Workload     string                `json:"workload"`
	Nodes        int                   `json:"nodes"`
	RanksPerNode int                   `json:"ranks_per_node"`
	GradFloats   int                   `json:"grad_floats"`
	BucketFloats int                   `json:"bucket_floats"`
	Slowdown     float64               `json:"slowdown"`
	Reps         int                   `json:"reps"`
	MAPEMax      float64               `json:"mape_max"`
	Calibration  *simevent.Calibration `json:"calibration"`
}

// simCalibrateMaxMAPE is the calibration gate: the allowed mean absolute
// percentage error of predicted against measured step time.
const simCalibrateMaxMAPE = 0.15

// simCalibrateWorkload runs the calibration gate: measure every collective
// live at a small scale on slowed-down Minsky profiles (sleeps dominate
// scheduler noise), fit the simulator's host overhead, and fail unless
// byte counts agree exactly and the step-time MAPE stays within
// simCalibrateMaxMAPE.
func simCalibrateWorkload(jsonPath string) error {
	const (
		nodes, ranksPerNode = 2, 4
		gradFloats          = 8192
		bucketFloats        = 2048
		slowdown            = 400
		reps                = 3
	)
	intra, inter, err := simnet.MinskyFabric(nodes).LinkProfiles(slowdown)
	if err != nil {
		return err
	}
	topk, err := compress.New(compress.Config{Codec: "topk", TopKRatio: simTopKRatio})
	if err != nil {
		return err
	}
	mk := func(col simevent.Collective, codec compress.Codec) simevent.LiveCase {
		return simevent.LiveCase{
			Spec: simevent.Spec{
				Collective: col, Topo: mpi.UniformTopology(nodes*ranksPerNode, ranksPerNode),
				Elems: gradFloats, BucketFloats: bucketFloats, Codec: codec,
			},
			Intra: intra, Inter: inter,
		}
	}
	cases := []simevent.LiveCase{
		mk(simevent.BucketRing, nil),
		mk(simevent.Rabenseifner, nil),
		mk(simevent.Hierarchical, compress.Int8{}),
		mk(simevent.ShardedRS, topk),
	}
	fmt.Printf("sim calibration: %d×%d grad=%d floats bucket=%d slowdown=%d reps=%d\n",
		nodes, ranksPerNode, gradFloats, bucketFloats, slowdown, reps)
	cal, err := simevent.Calibrate(cases, reps)
	if err != nil {
		return err
	}
	for _, c := range cal.Cases {
		fmt.Printf("  %-13s %-5s measured %8.2f ms  predicted %8.2f ms  err %5.1f%%  bytes exact: %v\n",
			c.Collective, c.Codec, c.MeasuredMS, c.PredictedMS, 100*c.AbsPctErr, c.BytesMatch)
	}
	fmt.Printf("  fitted host overhead %s   MAPE %.1f%% (gate %.0f%%)   bytes exact: %v\n",
		cal.HostOverhead, 100*cal.MAPE, 100*simCalibrateMaxMAPE, cal.BytesExact)
	rep := simCalibrateReport{
		Workload: "sim-calibrate",
		Nodes:    nodes, RanksPerNode: ranksPerNode,
		GradFloats: gradFloats, BucketFloats: bucketFloats,
		Slowdown: slowdown, Reps: reps, MAPEMax: simCalibrateMaxMAPE,
		Calibration: cal,
	}
	if err := writeReport(jsonPath, "BENCH_sim_calibrate.*.json", rep); err != nil {
		return err
	}
	if !cal.BytesExact {
		return fmt.Errorf("benchtool: simulated byte counts diverge from live World.Traffic — schedule extraction drifted")
	}
	if cal.MAPE > simCalibrateMaxMAPE {
		return fmt.Errorf("benchtool: calibration MAPE %.1f%% exceeds the %.0f%% gate", 100*cal.MAPE, 100*simCalibrateMaxMAPE)
	}
	return nil
}
