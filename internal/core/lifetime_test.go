package core_test

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// requireGoroutines waits for the goroutine count to come back down to want
// — a goroutine is still counted for a moment after the event its stopper
// waits on — and fails with every goroutine's stack if it has not within
// ten seconds.
func requireGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			var stacks bytes.Buffer
			_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1) // a bytes.Buffer write cannot fail
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), want, stacks.String())
		}
	}
}

// fabricConfig is fabric_int8_sharded_overlap's exchange at test size:
// int8 with error feedback, bucket-major, sharded, over a 2×2 topology.
func fabricConfig(learners int) core.Config {
	return core.Config{
		Compression:     compress.Config{Codec: "int8", ErrorFeedback: true, BucketFloats: 256},
		Overlap:         true,
		OverlapInFlight: 4,
		ShardOptimizer:  true,
		Topology:        mpi.UniformTopology(learners, 2),
	}
}

// TestStreamLearnerCloseLeavesNoGoroutines: the exchange's goroutines — the
// Stream's launch and reduce, the packer and the collector — and the device
// workers live from NewLearner to Close, and Close returns the goroutine
// count to what it was before the learners were built, under every exchange.
func TestStreamLearnerCloseLeavesNoGoroutines(t *testing.T) {
	const learners, steps = 4, 3
	x, labels := core.SyntheticTensorData(32, 3, 8, 5)
	kernels.Workers() // the process-wide pool starts once, on first use
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"raw phased", core.Config{Allreduce: allreduce.AlgMultiColor}},
		{"bucketed phased", core.Config{Compression: compress.Config{Codec: "bf16", BucketFloats: 256}}},
		{"overlap", core.Config{Overlap: true, Compression: compress.Config{Codec: "int8", BucketFloats: 256}}},
		{"sharded hierarchical", fabricConfig(learners)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := mpi.NewWorld(learners)
			defer w.Close()
			before := runtime.NumGoroutine()
			cfg := tc.cfg
			cfg.BatchPerDevice = 2
			ls := make([]*core.Learner, learners)
			err := w.Run(func(c *mpi.Comm) error {
				replicas := []nn.Layer{core.SmallBNFreeCNN(3, 8, 1), core.SmallBNFreeCNN(3, 8, 2)}
				l, err := core.NewLearner(c, replicas, &core.SliceSource{X: x, Labels: labels, Rank: c.Rank(), Ranks: learners}, 3, 8, 8, cfg)
				if err != nil {
					return err
				}
				ls[c.Rank()] = l
				for i := 0; i < steps; i++ {
					if _, err := l.Step(); err != nil {
						return err
					}
				}
				return nil
			})
			for _, l := range ls {
				if l != nil {
					l.Close()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			requireGoroutines(t, before)
		})
	}
}

// TestElasticCrashRejoinLeavesNoGoroutines: a run that loses a rank and
// takes it back closes every incarnation's learners — the crashed rank's
// after its failed step included — so the goroutine count ends where it
// started.
func TestElasticCrashRejoinLeavesNoGoroutines(t *testing.T) {
	x, labels := core.SyntheticTensorData(48, 3, 8, 7)
	lcfg := fabricConfig(4)
	lcfg.Schedule, lcfg.SGD = sgd.Const(0.05), sgd.DefaultConfig()
	kernels.Workers()
	before := runtime.NumGoroutine()
	res := train(t, elastic.Config{
		Identities:     4,
		DevicesPerNode: 1,
		GlobalBatch:    12,
		Steps:          8,
		NewReplica:     func(seed int64) nn.Layer { return core.SmallBNFreeCNN(3, 8, seed) },
		NewSource:      core.SliceSources(x, labels),
		InputC:         3, InputH: 8, InputW: 8,
		Learner: lcfg,
		Plan:    elastic.Plan{DetectTimeout: 2 * time.Second, CrashAtStep: map[int]int{3: 3}, JoinAtStep: map[int]int{3: 5}},
	})
	if res.Incarnations != 3 {
		t.Fatalf("%d incarnations, want a crash and a rejoin", res.Incarnations)
	}
	requireGoroutines(t, before)
}
