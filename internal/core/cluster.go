package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/allreduce"
	"repro/internal/dimd"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ClusterConfig describes a full in-process training job: N learners on an
// mpi.World, each with m device replicas, a data source, and the Algorithm 1
// loop with optional periodic DIMD shuffles.
type ClusterConfig struct {
	Learners       int
	DevicesPerNode int
	// NewReplica builds one model replica; called Learners×DevicesPerNode
	// times with distinct seeds (weights are then synced from rank 0).
	NewReplica func(seed int64) nn.Layer
	// NewSource builds learner rank's batch source.
	NewSource func(rank int) BatchSource
	// Stores, when non-nil, gives learner rank's DIMD store so the loop can
	// run the periodic shuffle (paper Section 4.1); ShuffleEvery controls
	// the cadence in steps (0 disables).
	Stores       func(rank int) *dimd.Store
	ShuffleEvery int
	// ShuffleGroups splits learners into this many shuffle groups (0 or 1 =
	// one global group).
	ShuffleGroups          int
	Steps                  int
	InputC, InputH, InputW int
	Learner                Config
	// NewWorld, when non-nil, builds the in-process MPI world (e.g.
	// mpi.NewLatencyWorld for comm-heavy overlap experiments). Defaults to
	// mpi.NewWorld.
	NewWorld func(ranks int) *mpi.World
	// Eval, when non-nil, is called on learner 0 every EvalEvery steps with
	// the current learner; use it to record accuracy curves.
	Eval      func(step int, l *Learner)
	EvalEvery int
}

// ClusterResult aggregates a run.
type ClusterResult struct {
	// Losses[r][t] is learner r's local loss at step t.
	Losses [][]float64
	// FinalWeights[r] is learner r's flattened final model.
	FinalWeights [][]float32
	// Phases[r] is learner r's cumulative per-phase wall time.
	Phases []PhaseTimes
	// CommStats[r] is learner r's cumulative compressed-allreduce traffic
	// (all zero when the run used the uncompressed path).
	CommStats []allreduce.CompressedStats
	// OptStateBytes[r] is learner r's resident optimizer (momentum) state in
	// bytes: a full replica per device normally, one parameter shard under
	// Config.ShardOptimizer.
	OptStateBytes []int64
	// ParamAGBytes[r] is learner r's cumulative parameter-allgather wire
	// bytes (send+recv) — the traffic the sharded step adds in exchange for
	// the owner-routed gradient reduce-scatter; zero when sharding is off.
	ParamAGBytes []int64
	// Traffic is the world's wire bytes per link class over the run (zeros
	// unless NewWorld built a topology world).
	Traffic mpi.Traffic
}

// RunCluster executes the job on an in-process world and returns per-step
// losses and final weights. It is the harness behind the functional
// experiments (accuracy invariance, serial-vs-distributed equivalence) and
// the quickstart example.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	if cfg.Learners <= 0 || cfg.DevicesPerNode <= 0 {
		return nil, fmt.Errorf("core: invalid cluster %d×%d", cfg.Learners, cfg.DevicesPerNode)
	}
	newWorld := cfg.NewWorld
	if newWorld == nil {
		newWorld = mpi.NewWorld
	}
	world := newWorld(cfg.Learners)
	defer world.Close()
	res := &ClusterResult{
		Losses:        make([][]float64, cfg.Learners),
		FinalWeights:  make([][]float32, cfg.Learners),
		Phases:        make([]PhaseTimes, cfg.Learners),
		CommStats:     make([]allreduce.CompressedStats, cfg.Learners),
		OptStateBytes: make([]int64, cfg.Learners),
		ParamAGBytes:  make([]int64, cfg.Learners),
	}
	var mu sync.Mutex
	err := world.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		replicas := make([]nn.Layer, cfg.DevicesPerNode)
		for d := range replicas {
			replicas[d] = cfg.NewReplica(int64(rank*cfg.DevicesPerNode + d + 1))
		}
		l, err := NewLearner(c, replicas, cfg.NewSource(rank), cfg.InputC, cfg.InputH, cfg.InputW, cfg.Learner)
		if err != nil {
			return err
		}
		defer l.Close()

		var shuffleComm *mpi.Comm
		if cfg.Stores != nil && cfg.ShuffleEvery > 0 {
			groups := cfg.ShuffleGroups
			if groups <= 0 {
				groups = 1
			}
			ranks, err := dimd.GroupRanks(c.Size(), groups, rank)
			if err != nil {
				return err
			}
			shuffleComm, err = c.Sub(ranks)
			if err != nil {
				return err
			}
		}

		losses := make([]float64, 0, cfg.Steps)
		for t := 0; t < cfg.Steps; t++ {
			if shuffleComm != nil && t > 0 && t%cfg.ShuffleEvery == 0 {
				if err := cfg.Stores(rank).Shuffle(shuffleComm, dimd.ShuffleOptions{Seed: int64(t)}); err != nil {
					return fmt.Errorf("core: shuffle at step %d: %w", t, err)
				}
			}
			loss, err := l.Step()
			if err != nil {
				return fmt.Errorf("core: rank %d step %d: %w", rank, t, err)
			}
			losses = append(losses, loss)
			if cfg.Eval != nil && rank == 0 && cfg.EvalEvery > 0 && (t+1)%cfg.EvalEvery == 0 {
				cfg.Eval(t+1, l)
			}
		}
		w, err := l.FlatWeights()
		if err != nil {
			return err
		}
		mu.Lock()
		res.Losses[rank] = losses
		res.FinalWeights[rank] = w
		res.Phases[rank] = l.Phases()
		res.CommStats[rank] = l.CommStats()
		res.OptStateBytes[rank] = l.OptimizerStateBytes()
		res.ParamAGBytes[rank] = l.ParamAllGatherBytes()
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Traffic = world.Traffic()
	return res, nil
}

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
// drivers (benchtool's overlap row and the root overlap benchmark): enough
// conv compute that backward takes real time per layer — giving the
// reactive pipeline something to hide communication under — while the fc
// layer holds most of the parameters, so the bulk of the gradient becomes
// ready at the very start of backward. One definition keeps the two
// drivers' reported numbers comparable.
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
