package core_test

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
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

	// On a charged world a member's Isend goes to its transport's sender for
	// the destination, started by the first step and stopped by World.Close:
	// after the first step, the count sampled mid-round is the count between
	// rounds, and the learners' and the world's Close bring it back to before.
	t.Run("sharded hierarchical, charged", func(t *testing.T) {
		w, err := mpi.NewTopologyWorld(learners, mpi.UniformTopology(learners, 2),
			mpi.LinkProfile{Latency: 100 * time.Microsecond}, mpi.LinkProfile{Latency: 200 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		cfg := fabricConfig(learners)
		cfg.BatchPerDevice = 2
		ls := make([]*core.Learner, learners)
		var parked atomic.Int32 // ranks waiting at a round boundary
		resume := []chan struct{}{make(chan struct{}), make(chan struct{})}
		boundary := func(i int) {
			parked.Add(1)
			<-resume[i]
		}
		ran := make(chan error, 1)
		go func() {
			ran <- w.Run(func(c *mpi.Comm) error {
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
					if i == 0 {
						boundary(0)
					}
					if i == steps-1 {
						boundary(1)
					}
				}
				return nil
			})
		}()
		waitParked := func(n int32, between int) {
			for deadline := time.Now().Add(30 * time.Second); parked.Load() < n; runtime.Gosched() {
				if got := runtime.NumGoroutine(); between > 0 && got != between {
					t.Errorf("%d goroutines mid-round, %d between rounds", got, between)
					between = 0 // one report is enough; keep waiting for the ranks
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d ranks reached the round boundary", parked.Load(), n)
				}
			}
		}
		waitParked(learners, 0)
		between := runtime.NumGoroutine()
		close(resume[0])
		waitParked(2*learners, between)
		close(resume[1])
		err = <-ran
		for _, l := range ls {
			if l != nil {
				l.Close()
			}
		}
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		requireGoroutines(t, before)
	})
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
