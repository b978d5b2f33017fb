package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// pairSpec is one two-configuration workload, the shape of every result in
// the paper's evaluation: the same training job run under two settings and
// compared. Everything here is shared by the two arms except what arm does
// to the learner's config.
type pairSpec struct {
	name                         string // the report's workload name and temp-file stem
	arms                         [2]string
	model                        func(classes, size int, seed int64) nn.Layer
	seed                         int64 // added to the replica index elastic.Run hands model
	classes, size, batch, bucket int
	learners, devices, steps     int
	fabric                       string                              // the charged links, for the header line
	world                        func(ranks int) (*mpi.World, error) // nil: mpi.NewWorld
	arm                          func(cfg *core.Config, second bool)
	// derive turns the two summaries into the row's ratios and, after
	// them, the row's own gate.
	derive func(a, b *armRun) ([]ratio, error)
}

// rankRun is one learner's share of an arm.
type rankRun struct {
	Rank int `json:"rank"`
	// BytesSent/BytesRecv are the gradient exchange's wire bytes.
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	// ParamAllGatherBytes is the sharded step's extra exchange (send+recv).
	ParamAllGatherBytes int64 `json:"param_allgather_bytes"`
	OptStateBytes       int64 `json:"opt_state_bytes"`
}

func (r rankRun) exchangeBytes() int64 { return r.BytesSent + r.BytesRecv }

// armRun is one arm's measurements. The phase seconds are per-step means of
// learner 0's decomposition; under the reactive pipeline AllReduceSeconds is
// only the exposed tail, under sharding it includes the parameter allgather.
type armRun struct {
	Arm              string  `json:"arm"`
	WallSeconds      float64 `json:"wall_seconds"`
	StepSeconds      float64 `json:"step_seconds"`
	DataSeconds      float64 `json:"data_seconds"`
	ComputeSeconds   float64 `json:"compute_seconds"`
	IntraNodeSeconds float64 `json:"intranode_seconds"`
	AllReduceSeconds float64 `json:"allreduce_seconds"`
	UpdateSeconds    float64 `json:"update_seconds"`
	// IntraBytes/InterBytes are the world's wire bytes per link class
	// (zero on a world without charged links).
	IntraBytes       int64     `json:"intra_bytes"`
	InterBytes       int64     `json:"inter_bytes"`
	MaxOptStateBytes int64     `json:"max_opt_state_bytes"`
	PerRank          []rankRun `json:"per_rank"`
}

// ratio is one derived comparison of the two arms.
type ratio struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// pairReport is the JSON schema of every pair row.
type pairReport struct {
	Workload string `json:"workload"`
	Codec    string `json:"codec"`
	// GOMAXPROCS records the parallelism the run had: overlap on 1 proc,
	// where compute cannot run while comm goroutines spin, is not
	// comparable to a multi-core measurement.
	GOMAXPROCS     int       `json:"gomaxprocs"`
	NumCPU         int       `json:"num_cpu"`
	Learners       int       `json:"learners"`
	DevicesPerNode int       `json:"devices_per_node"`
	Steps          int       `json:"steps"`
	BucketFloats   int       `json:"bucket_floats"`
	GradFloats     int       `json:"grad_floats"`
	Fabric         string    `json:"fabric,omitempty"`
	Runs           [2]armRun `json:"runs"`
	// Speedup is the first arm's step time over the second's.
	Speedup float64 `json:"speedup"`
	Ratios  []ratio `json:"ratios"`
	// BitwiseIdentical: both arms left the same final parameters on every
	// rank. Each row compares two schedules or routings of one computation,
	// so anything else fails the run.
	BitwiseIdentical bool `json:"bitwise_identical"`
}

const pairCodec = "none"

// config is the learner config of one arm.
func (s *pairSpec) config(second bool) core.Config {
	cfg := core.Config{
		BatchPerDevice: s.batch,
		Schedule:       sgd.Const(0.05),
		SGD:            sgd.DefaultConfig(),
		Compression:    compress.Config{Codec: pairCodec, BucketFloats: s.bucket},
	}
	s.arm(&cfg, second)
	return cfg
}

// data is the job's dataset: one global batch, dealt in fixed slices.
func (s *pairSpec) data() (*tensor.Tensor, []int) {
	return core.SyntheticTensorData(s.batch*s.devices*s.learners, s.classes, s.size, 23)
}

func (s *pairSpec) replica(seed int64) nn.Layer { return s.model(s.classes, s.size, s.seed+seed) }

// runArm trains one arm and summarizes it.
func (s *pairSpec) runArm(x *tensor.Tensor, labels []int, second bool) (*elastic.Result, armRun, error) {
	start := time.Now()
	res, err := elastic.Run(elastic.Config{
		Identities:     s.learners,
		DevicesPerNode: s.devices,
		GlobalBatch:    s.batch * s.devices * s.learners,
		Steps:          s.steps,
		NewWorld:       s.world,
		NewReplica:     s.replica,
		NewSource:      core.SliceSources(x, labels),
		InputC:         3, InputH: s.size, InputW: s.size,
		Learner: s.config(second),
	})
	if err != nil {
		return nil, armRun{}, err
	}
	wall, n, ph := time.Since(start).Seconds(), float64(s.steps), res.Ranks[0].Phases
	run := armRun{
		WallSeconds:      wall,
		StepSeconds:      wall / n,
		DataSeconds:      ph.Data / n,
		ComputeSeconds:   ph.Compute / n,
		IntraNodeSeconds: ph.IntraNode / n,
		AllReduceSeconds: ph.AllReduce / n,
		UpdateSeconds:    ph.Update / n,
		IntraBytes:       res.Traffic.IntraBytes,
		InterBytes:       res.Traffic.InterBytes,
	}
	for rank, rr := range res.Ranks {
		run.PerRank = append(run.PerRank, rankRun{
			Rank:                rank,
			BytesSent:           rr.CommStats.BytesSent,
			BytesRecv:           rr.CommStats.BytesRecv,
			ParamAllGatherBytes: rr.ParamAGBytes,
			OptStateBytes:       rr.OptStateBytes,
		})
		run.MaxOptStateBytes = max(run.MaxOptStateBytes, rr.OptStateBytes)
	}
	return res, run, nil
}

// sameWeights reports whether two runs left every rank the same parameters.
func sameWeights(a, b []elastic.RankResult) bool {
	for r := range a {
		if !slices.Equal(a[r].Weights, b[r].Weights) {
			return false
		}
	}
	return true
}

// div is a/b, and 0 where the ratio has no meaning.
func div[T int64 | float64](a, b T) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runPair trains both arms of s, prints and writes the comparison, then
// applies the gates: the report is on disk before any of them fails.
func runPair(s pairSpec, jsonPath string) error {
	if s.learners < 2 || s.devices < 1 || s.steps < 1 {
		return fmt.Errorf("benchtool: %s needs at least 2 learners, 1 device and 1 step (got %d, %d, %d)", s.name, s.learners, s.devices, s.steps)
	}
	rep := pairReport{
		Workload:       s.name,
		Codec:          pairCodec,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Learners:       s.learners,
		DevicesPerNode: s.devices,
		Steps:          s.steps,
		BucketFloats:   s.bucket,
		Fabric:         s.fabric,
	}
	x, labels := s.data()
	var ranks [2][]elastic.RankResult
	for i, name := range s.arms {
		res, run, err := s.runArm(x, labels, i == 1)
		if err != nil {
			return fmt.Errorf("benchtool: %s %s run: %w", s.name, name, err)
		}
		run.Arm = name
		rep.Runs[i], ranks[i] = run, res.Ranks
	}
	a, b := &rep.Runs[0], &rep.Runs[1]
	rep.GradFloats = len(ranks[0][0].Weights)
	rep.BitwiseIdentical = sameWeights(ranks[0], ranks[1])
	rep.Speedup = div(a.StepSeconds, b.StepSeconds)
	var gateErr error
	rep.Ratios, gateErr = s.derive(a, b)

	fmt.Printf("%s workload: codec=%s learners=%d devices=%d steps=%d grad=%d floats buckets=%d floats gomaxprocs=%d\n",
		s.name, rep.Codec, s.learners, s.devices, s.steps, rep.GradFloats, s.bucket, rep.GOMAXPROCS)
	if s.fabric != "" {
		fmt.Printf("  links: %s\n", s.fabric)
	}
	for _, r := range rep.Runs {
		fmt.Printf("  %-12s %7.2f ms/step (compute %.2f, comm %.2f, update %.2f)  rank 0 wire %d B + %d B params  intra %d B  inter %d B  max opt state %d B\n",
			r.Arm, 1e3*r.StepSeconds, 1e3*r.ComputeSeconds, 1e3*r.AllReduceSeconds, 1e3*r.UpdateSeconds,
			r.PerRank[0].exchangeBytes(), r.PerRank[0].ParamAllGatherBytes, r.IntraBytes, r.InterBytes, r.MaxOptStateBytes)
	}
	fmt.Printf("  speedup %.2fx", rep.Speedup)
	for _, r := range rep.Ratios {
		fmt.Printf("   %s %.3f", r.Name, r.Value)
	}
	fmt.Printf("\n  bitwise identical: %v\n", rep.BitwiseIdentical)

	if err := writeReport(jsonPath, "BENCH_"+s.name+".*.json", rep); err != nil {
		return err
	}
	if !rep.BitwiseIdentical {
		return fmt.Errorf("benchtool: %s: final weights of the %s and %s runs differ", s.name, s.arms[0], s.arms[1])
	}
	return gateErr
}

// overlapArm is the phased step against the reactive pipeline, both over
// the multi-colour bucketed exchange.
func overlapArm(cfg *core.Config, second bool) {
	cfg.Allreduce = allreduce.AlgMultiColor
	cfg.OverlapInFlight = 16
	cfg.Overlap = second
}

// overlapRow: phased vs overlapped schedules of a comm-heavy job on a
// latency-injected cluster. The link charges real wall time through one
// egress NIC per node, so the second arm is faster only by hiding
// communication under backward compute. Per-bucket cost is at the scale of
// the Go scheduler's async-preemption slice (~10 ms): even on a single-core
// runner, where sleeping send goroutines only get handoff slices at
// preemption boundaries, most of the wire time still hides.
func overlapRow() pairSpec {
	link := mpi.LinkProfile{Latency: 8 * time.Millisecond, BytesPerSec: 64 << 20}
	return pairSpec{
		name: "overlap", arms: [2]string{"phased", "overlapped"},
		model: core.OverlapBenchModel, seed: 900,
		classes: 8, size: 24, batch: 32, bucket: 1024,
		fabric: fmt.Sprintf("%s + %.0f MB/s per-node egress", link.Latency, link.BytesPerSec/1e6),
		world:  func(n int) (*mpi.World, error) { return mpi.NewLatencyWorld(n, link), nil },
		arm:    overlapArm,
		derive: func(a, b *armRun) ([]ratio, error) {
			return []ratio{
				// Overlapped step time over the phased compute+comm sum:
				// 1 means nothing hidden, lower is better.
				{"overlap_efficiency", div(b.StepSeconds, a.ComputeSeconds+a.AllReduceSeconds)},
				// The share of the phased run's exposed exchange that the
				// pipeline hid under backward.
				{"comm_hidden_fraction", div(a.AllReduceSeconds-b.AllReduceSeconds, a.AllReduceSeconds)},
			}, nil
		},
	}
}

// shardRow: replicated vs ZeRO-1 sharded optimizer state. Size 8 flattens
// to 192 inputs, so ShardBenchModel's first dense layer matches its hidden
// layers and the shard layout can balance.
func shardRow() pairSpec {
	return pairSpec{
		name: "shard", arms: [2]string{"replicated", "sharded"},
		model: core.ShardBenchModel, seed: 700,
		classes: 8, size: 8, batch: 8, bucket: 1024,
		arm: func(cfg *core.Config, second bool) { cfg.ShardOptimizer = second },
		derive: func(a, b *armRun) ([]ratio, error) {
			a0, b0 := a.PerRank[0], b.PerRank[0]
			return []ratio{
				// Max per-rank optimizer bytes: ~learners×devices when shards balance.
				{"state_scaling", div(a.MaxOptStateBytes, b.MaxOptStateBytes)},
				// Owner routing cuts the gradient exchange by ~size-1; the
				// honest comparison adds the sharded step's parameter allgather.
				{"grad_bytes_scaling", div(a0.exchangeBytes(), b0.exchangeBytes())},
				{"total_bytes_scaling", div(a0.exchangeBytes()+a0.ParamAllGatherBytes, b0.exchangeBytes()+b0.ParamAllGatherBytes)},
			}, nil
		},
	}
}

// hierMinSlowLinkRatio is the hierarchical routing's contract: at least
// this many times fewer bytes over the inter-node links than the flat run.
const hierMinSlowLinkRatio = 2

// hierRow: flat vs topology-routed exchange on an asymmetric world. The
// links are MinskyFabric's scaled down 200x: the tiny job then spends real
// but CI-friendly wall time on the wire, the intra/inter asymmetry kept.
func hierRow(nodes, ranksPerNode int) (pairSpec, error) {
	const slowdown = 200
	if nodes < 2 || ranksPerNode < 1 {
		return pairSpec{}, fmt.Errorf("benchtool: hier needs at least 2 nodes of at least 1 rank (got %d×%d) to have an inter-node fabric", nodes, ranksPerNode)
	}
	intra, inter, err := simnet.MinskyFabric(nodes).LinkProfiles(slowdown)
	if err != nil {
		return pairSpec{}, err
	}
	return pairSpec{
		name: "hier", arms: [2]string{"flat", "hierarchical"},
		model: core.AllocBenchModel, seed: 700,
		classes: 8, size: 12, batch: 8, bucket: 16384,
		learners: nodes * ranksPerNode,
		fabric: fmt.Sprintf("%d nodes × %d ranks, MinskyFabric/%d: intra %s + %.0f MB/s, inter %s + %.0f MB/s",
			nodes, ranksPerNode, slowdown, intra.Latency, intra.BytesPerSec/1e6, inter.Latency, inter.BytesPerSec/1e6),
		world: func(n int) (*mpi.World, error) {
			return mpi.NewTopologyWorld(n, mpi.UniformTopology(n, ranksPerNode), intra, inter)
		},
		arm: func(cfg *core.Config, second bool) {
			if second {
				cfg.Topology = mpi.UniformTopology(nodes*ranksPerNode, ranksPerNode)
			}
		},
		derive: func(a, b *armRun) ([]ratio, error) {
			saved := div(a.InterBytes, b.InterBytes)
			ratios := []ratio{{"inter_bytes_ratio", saved}}
			if saved < hierMinSlowLinkRatio {
				return ratios, fmt.Errorf("benchtool: hierarchical routing saved only %.2fx slow-link bytes (want >= %dx)", saved, hierMinSlowLinkRatio)
			}
			return ratios, nil
		},
	}, nil
}
