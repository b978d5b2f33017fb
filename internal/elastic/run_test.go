package elastic

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dimd"
	"repro/internal/imagecodec"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// fixedJob is a fault-free run of the small BN-free CNN on 4 ranks × 2
// devices: 6 steps over a global batch of 16.
func fixedJob(lcfg core.Config) Config {
	x, labels := core.SyntheticTensorData(64, 4, 8, 3)
	lcfg.Schedule = sgd.Const(0.05)
	lcfg.SGD = sgd.DefaultConfig()
	return Config{
		Identities:     4,
		DevicesPerNode: 2,
		GlobalBatch:    16,
		Steps:          6,
		NewReplica:     func(seed int64) nn.Layer { return core.SmallBNFreeCNN(4, 8, seed) },
		NewSource:      core.SliceSources(x, labels),
		InputC:         3, InputH: 8, InputW: 8,
		Learner: lcfg,
	}
}

// fabric2x2 is fabric_int8_sharded_overlap's world at n ranks: nodes of two
// ranks whose inter-node links are charged.
func fabric2x2(n int) (*mpi.World, error) {
	inter := mpi.LinkProfile{Latency: 200 * time.Microsecond, BytesPerSec: 256 << 20}
	return mpi.NewTopologyWorld(n, mpi.UniformTopology(n, 2), mpi.LinkProfile{}, inter)
}

// fabricJob is fabric_int8_sharded_overlap's configuration at test size:
// int8 with error feedback, sharded, overlapped, routed over the 2×2 world.
func fabricJob() Config {
	cfg := fixedJob(core.Config{
		Compression:     compress.Config{Codec: "int8", ErrorFeedback: true, BucketFloats: 256},
		Overlap:         true,
		OverlapInFlight: 8,
		ShardOptimizer:  true,
		Topology:        mpi.UniformTopology(4, 2),
	})
	cfg.DevicesPerNode = 1
	cfg.NewWorld = fabric2x2
	return cfg
}

// dimdJob feeds fixedJob, one device a rank, from DIMD stores dealt from one
// pack and shuffled every other step. It draws 48 samples a step at
// learning rate 0.01, so the samples a crash re-deals move the loss little.
func dimdJob(t *testing.T) Config {
	t.Helper()
	corpus, err := dataset.New(dataset.Spec{Classes: 4, Train: 48, Size: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pack := dimd.Build(48, func(i int) (int, []byte) { return corpus.Label(i), corpus.EncodedImage(i, 80) })
	aug := imagecodec.Augment{Crop: 8, Mean: [3]float32{0.5, 0.5, 0.5}, Std: [3]float32{0.25, 0.25, 0.25}}
	cfg := fixedJob(core.Config{Compression: compress.Config{Codec: "bf16", BucketFloats: 256}})
	cfg.DevicesPerNode, cfg.GlobalBatch = 1, 48
	cfg.Learner.Schedule = sgd.Const(0.01)
	cfg.NewSource = func(rank, ranks, startStep int) (core.BatchSource, error) {
		s, err := dimd.LoadPartition(pack, rank, ranks)
		return &core.DIMDSource{Store: s, Aug: aug, RNG: tensor.NewRNG(int64(100*startStep + rank))}, err
	}
	cfg.ShuffleEvery = 2
	return cfg
}

// reference is what the fixed-world loop written out leaves behind.
type reference struct {
	ranks   []RankResult
	losses  []float64 // per-step mean over ranks
	traffic mpi.Traffic
}

// referenceLoop trains cfg the way the loop reads in Algorithm 1 —
// NewLearner on every rank, then Step cfg.Steps times, shuffling a DIMD
// source's store every cfg.ShuffleEvery steps — on cfg.NewWorld's world
// (mpi.NewWorld when unset; a TCP cfg is run in memory).
func referenceLoop(t *testing.T, cfg Config) reference {
	t.Helper()
	n := cfg.Identities
	w := mpi.NewWorld(n)
	if cfg.NewWorld != nil {
		var err error
		if w, err = cfg.NewWorld(n); err != nil {
			t.Fatal(err)
		}
	}
	defer w.Close()
	ref := reference{ranks: make([]RankResult, n), losses: make([]float64, cfg.Steps)}
	losses := make([][]float64, n)
	lcfg := cfg.Learner
	lcfg.BatchPerDevice = cfg.GlobalBatch / (n * cfg.DevicesPerNode)
	err := w.Run(func(c *mpi.Comm) error {
		r := c.Rank()
		replicas := make([]nn.Layer, cfg.DevicesPerNode)
		for d := range replicas {
			replicas[d] = cfg.NewReplica(int64(r*cfg.DevicesPerNode + d + 1))
		}
		src, err := cfg.NewSource(r, n, 0)
		if err != nil {
			return err
		}
		l, err := core.NewLearner(c, replicas, src, cfg.InputC, cfg.InputH, cfg.InputW, lcfg)
		if err != nil {
			return err
		}
		defer l.Close()
		everyone := make([]int, n)
		for i := range everyone {
			everyone[i] = i
		}
		shuffle, err := c.Sub(everyone)
		if err != nil {
			return err
		}
		losses[r] = make([]float64, cfg.Steps)
		for s := range losses[r] {
			if d, ok := src.(*core.DIMDSource); ok && cfg.ShuffleEvery > 0 && s > 0 && s%cfg.ShuffleEvery == 0 {
				if err := d.Store.Shuffle(shuffle, dimd.ShuffleOptions{Seed: int64(s)}); err != nil {
					return err
				}
			}
			if losses[r][s], err = l.Step(); err != nil {
				return err
			}
		}
		wts, err := l.FlatWeights()
		ref.ranks[r] = RankResult{Weights: wts, CommStats: l.CommStats(),
			OptStateBytes: l.OptimizerStateBytes(), ParamAGBytes: l.ParamAllGatherBytes()}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := range ref.losses {
		var sum float64
		for r := range losses {
			sum += losses[r][s]
		}
		ref.losses[s] = sum / float64(n)
	}
	ref.traffic = w.Traffic()
	return ref
}

// A fault-free Run is the fixed-world loop: on every schedule, codec,
// routing and input path, each rank ends with the reference loop's weights
// bit for bit, the per-step losses match exactly, and the result carries the
// same exchange counters and wire traffic. Over TCP sockets it matches the
// in-memory reference too — the trainer is transport-agnostic end to end.
func TestElasticFaultFreeRunMatchesReferenceLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"phased-multicolor", func(*testing.T) Config { return fixedJob(core.Config{Allreduce: allreduce.AlgMultiColor}) }},
		{"bucketed-none", func(*testing.T) Config {
			return fixedJob(core.Config{Compression: compress.Config{Codec: "none", BucketFloats: 256}})
		}},
		{"bucketed-int8-ef", func(*testing.T) Config {
			return fixedJob(core.Config{Compression: compress.Config{Codec: "int8", ErrorFeedback: true, BucketFloats: 256}})
		}},
		{"overlap", func(*testing.T) Config {
			return fixedJob(core.Config{Compression: compress.Config{BucketFloats: 256}, Overlap: true, OverlapInFlight: 3})
		}},
		{"sharded", func(*testing.T) Config {
			return fixedJob(core.Config{Compression: compress.Config{Codec: "int8", BucketFloats: 256}, ShardOptimizer: true})
		}},
		{"sharded-overlap-2x2", func(*testing.T) Config { return fabricJob() }},
		{"dimd-shuffle", dimdJob},
		{"tcp", func(*testing.T) Config {
			cfg := fixedJob(core.Config{Allreduce: allreduce.AlgMultiColor})
			cfg.Transport = TransportTCP
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			ref := referenceLoop(t, cfg)
			res := runElastic(t, cfg)
			if res.Incarnations != 1 || len(res.Events) != 0 {
				t.Fatalf("fault-free run took %d incarnations, events %+v", res.Incarnations, res.Events)
			}
			if !slices.Equal(res.Losses, ref.losses) {
				t.Fatalf("losses %v, reference loop %v", res.Losses, ref.losses)
			}
			if len(res.Ranks) != len(ref.ranks) {
				t.Fatalf("%d ranks reported, want %d", len(res.Ranks), len(ref.ranks))
			}
			for r, got := range res.Ranks {
				want := ref.ranks[r]
				if !slices.Equal(got.Weights, want.Weights) {
					t.Fatalf("rank %d's weights differ from the reference loop's", r)
				}
				if got.CommStats != want.CommStats || got.OptStateBytes != want.OptStateBytes || got.ParamAGBytes != want.ParamAGBytes {
					t.Fatalf("rank %d counters %+v, reference %+v", r, got, want)
				}
			}
			if cfg.Transport != TransportTCP && res.Traffic != ref.traffic {
				t.Fatalf("traffic %+v, reference %+v", res.Traffic, ref.traffic)
			}
		})
	}
}

// mallocsPerStep is the marginal heap allocation count of one more step of
// run: the difference between a 12-step and a 2-step run, over 10, after a
// run that fills the buffer pools.
func mallocsPerStep(run func(steps int)) float64 {
	run(2)
	measure := func(steps int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		run(steps)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	short, long := measure(2), measure(12)
	return (float64(long) - float64(short)) / 10
}

// A fault-free Run pays nothing for recovery: no failure monitor, no
// checkpoint capture, no fault injector (which would turn the multi-colour
// tree's lending off). So a step costs what the reference loop's step costs,
// where a per-step capture alone would add its snapshot's allocations on
// every rank. Measured at one proc, where step allocations are repeatable.
func TestElasticFaultFreeRunAllocatesLikeReferenceLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := fixedJob(core.Config{Allreduce: allreduce.AlgMultiColor})
	cfg.Identities, cfg.DevicesPerNode, cfg.GlobalBatch = 2, 1, 8
	ref := mallocsPerStep(func(steps int) {
		c := cfg
		c.Steps = steps
		referenceLoop(t, c)
	})
	got := mallocsPerStep(func(steps int) {
		c := cfg
		c.Steps = steps
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per step: Run %.1f, reference loop %.1f", got, ref)
	if got > 1.1*ref+2 {
		t.Fatalf("a fault-free Run allocates %.1f a step, the reference loop %.1f", got, ref)
	}
}

// requireNearFaultFree fails unless res's final loss is within the chaos
// tolerance (10 %, relative) of the same job's fault-free run.
func requireNearFaultFree(t *testing.T, res *Result, cfg Config) {
	t.Helper()
	cfg.Plan = Plan{}
	base := runElastic(t, cfg)
	t.Logf("final loss %v, fault-free %v", res.FinalLoss, base.FinalLoss)
	if d := math.Abs(res.FinalLoss-base.FinalLoss) / math.Abs(base.FinalLoss); d > 0.1 {
		t.Fatalf("final loss %v drifted %.3f (relative) from the fault-free %v", res.FinalLoss, d, base.FinalLoss)
	}
}

// A crash and a rejoin on fabric_int8_sharded_overlap's configuration: the
// world shrinks to 3 ranks — nodes of 2 and 1, in the routing and in the
// charged fabric alike — and grows back to 2×2, and the survivors end bitwise
// equal with the fault-free run's loss.
func TestElasticCrashRejoinOnFabricInt8ShardedOverlap(t *testing.T) {
	cfg := fabricJob()
	cfg.GlobalBatch, cfg.Steps = 12, 10
	cfg.Plan = Plan{DetectTimeout: 2 * time.Second, CrashAtStep: map[int]int{3: 3}, JoinAtStep: map[int]int{3: 6}}
	res := runElastic(t, cfg)
	if res.Incarnations != 3 || len(res.Events) != 2 || res.Events[0].NewWorld != 3 || res.Events[1].NewWorld != 4 {
		t.Fatalf("incarnations=%d events=%+v, want a crash to 3 ranks and a rejoin to 4", res.Incarnations, res.Events)
	}
	requireAllLossesRecorded(t, res)
	requireSurvivorsAgree(t, res)
	if res.Traffic.InterBytes == 0 {
		t.Fatal("the final incarnation's fabric carried no inter-node bytes")
	}
	requireNearFaultFree(t, res, cfg)
}

// A crash in a DIMD run that shuffles: the survivors re-deal the corpus
// from the pack at the smaller world and keep shuffling on the global-step
// cadence.
func TestElasticCrashInDIMDShuffleRun(t *testing.T) {
	cfg := dimdJob(t)
	cfg.Steps = 8
	cfg.Plan = Plan{DetectTimeout: 2 * time.Second, CrashAtStep: map[int]int{2: 3}}
	var mu sync.Mutex
	held := map[int]int{} // records held per rank of the latest incarnation
	newSource := cfg.NewSource
	cfg.NewSource = func(rank, ranks, startStep int) (core.BatchSource, error) {
		src, err := newSource(rank, ranks, startStep)
		if err == nil {
			mu.Lock()
			held[rank] = src.(*core.DIMDSource).Store.Len()
			mu.Unlock()
		}
		return src, err
	}
	res := runElastic(t, cfg)
	if res.Incarnations != 2 || len(res.Events) != 1 || res.Events[0].NewWorld != 3 {
		t.Fatalf("incarnations=%d events=%+v, want one shrink to 3 ranks", res.Incarnations, res.Events)
	}
	if held[0]+held[1]+held[2] != 48 {
		t.Fatalf("the 3-rank world was dealt %v records, want all 48", held)
	}
	requireAllLossesRecorded(t, res)
	requireSurvivorsAgree(t, res)
	requireNearFaultFree(t, res, cfg)
}
