package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/nn"
)

// runScheduleWithCrash trains a 4-rank cluster under cfg with a fault plan
// that kills the victim mid-run, and returns each survivor's Step error. The
// whole run is bounded by a deadline: the acceptance criterion is that a
// rank death fails the step on every survivor instead of deadlocking the
// collectives.
func runScheduleWithCrash(t *testing.T, cfg Config, plan mpi.FaultPlan, victim int) map[int]error {
	t.Helper()
	const ranks, steps = 4, 6
	w := mpi.NewWorld(ranks)
	defer w.Close()
	inj := w.InjectFaults(plan)
	x, labels := SyntheticTensorData(64, 4, 8, 1)

	stepErrs := make(map[int]error)
	var mu sync.Mutex
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mpi.Comm) error {
			rank := c.Rank()
			src := &SliceSource{X: x, Labels: labels, Rank: rank, Ranks: ranks}
			l, err := NewLearner(c, []nn.Layer{SmallBNFreeCNN(4, 8, int64(rank+1))}, src, 3, 8, 8, cfg)
			if err != nil {
				return err
			}
			defer l.Close()
			for s := 0; s < steps; s++ {
				if err := inj.Tick(rank, s); err != nil {
					return nil // the victim dies at the top of its step
				}
				if _, err := l.Step(); err != nil {
					mu.Lock()
					stepErrs[rank] = err
					mu.Unlock()
					return nil
				}
			}
			return fmt.Errorf("rank %d finished every step despite the crash", rank)
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("training deadlocked after rank %d crashed", victim)
	}
	return stepErrs
}

// requireSurvivorsSeeRankDown asserts every survivor's step failed with a
// typed rank-down error.
func requireSurvivorsSeeRankDown(t *testing.T, stepErrs map[int]error, victim int) {
	t.Helper()
	if len(stepErrs) != 3 {
		t.Fatalf("%d survivors reported errors, want 3 (got %v)", len(stepErrs), stepErrs)
	}
	for rank, err := range stepErrs {
		if rank == victim {
			t.Fatalf("victim rank %d reported a step error: %v", rank, err)
		}
		if !errors.Is(err, mpi.ErrRankDown) {
			t.Fatalf("rank %d step error %v does not match ErrRankDown", rank, err)
		}
	}
}

// A rank crash mid-training must surface ErrRankDown on every survivor under
// all four execution schedules.
func TestRankDownAllSchedules(t *testing.T) {
	const victim = 2
	plan := mpi.FaultPlan{CrashAtStep: map[int]int{victim: 3}}
	topo := mpi.UniformTopology(4, 2)
	base := Config{
		BatchPerDevice: 4,
		GradScale:      1,
		Compression:    compress.Config{Codec: "none"},
	}
	schedules := map[string]func(Config) Config{
		"phased":       func(c Config) Config { return c },
		"overlap":      func(c Config) Config { c.Overlap = true; return c },
		"sharded":      func(c Config) Config { c.ShardOptimizer = true; return c },
		"hierarchical": func(c Config) Config { c.Topology = topo; return c },
		"sharded-hierarchical": func(c Config) Config {
			c.ShardOptimizer = true
			c.Topology = topo
			return c
		},
	}
	for name, mod := range schedules {
		t.Run(name, func(t *testing.T) {
			errs := runScheduleWithCrash(t, mod(base), plan, victim)
			requireSurvivorsSeeRankDown(t, errs, victim)
		})
	}
}

// The uncompressed multicolor allreduce has no poison path; survivors that
// abort can leave peers waiting on messages that never come. The detection
// timeout is what turns that into a clean typed failure.
func TestRankDownPlainAllreduceWithDetectTimeout(t *testing.T) {
	const victim = 1
	plan := mpi.FaultPlan{
		CrashAtStep:   map[int]int{victim: 3},
		DetectTimeout: 3 * time.Second,
	}
	cfg := Config{BatchPerDevice: 4, GradScale: 1}
	errs := runScheduleWithCrash(t, cfg, plan, victim)
	requireSurvivorsSeeRankDown(t, errs, victim)
}

// The sharded schedule has a rank whose parameter shard is empty at this
// model/world combination (greedy whole-parameter bounds leave rank 2 with
// zero elements at 4 ranks). That rank only *sends* in the gradient exchange,
// so it can race past the victim's down-marking with a clean reduce-scatter
// and then block in the parameter allgather behind survivors that already
// errored out. Only the detection timeout turns that into a typed failure —
// which is why sharded elastic recovery requires one.
func TestRankDownShardedEmptyShardSurvivorWithDetectTimeout(t *testing.T) {
	const victim = 0
	plan := mpi.FaultPlan{
		CrashAtStep:   map[int]int{victim: 3},
		DetectTimeout: 3 * time.Second,
	}
	cfg := Config{
		BatchPerDevice: 4,
		GradScale:      1,
		Compression:    compress.Config{Codec: "none"},
		ShardOptimizer: true,
	}
	errs := runScheduleWithCrash(t, cfg, plan, victim)
	requireSurvivorsSeeRankDown(t, errs, victim)
}

// A checkpoint captured by one learner must restore into a fresh learner —
// weights, momentum, and step counter — bitwise.
func TestFaultCheckpointRoundTripSingleRank(t *testing.T) {
	w := mpi.NewWorld(1)
	defer w.Close()
	x, labels := SyntheticTensorData(64, 4, 8, 1)
	cfg := Config{BatchPerDevice: 4, GradScale: 1}
	err := w.Run(func(c *mpi.Comm) error {
		src := &SliceSource{X: x, Labels: labels, Rank: 0, Ranks: 1}
		l, err := NewLearner(c, []nn.Layer{SmallBNFreeCNN(4, 8, 1)}, src, 3, 8, 8, cfg)
		if err != nil {
			return err
		}
		defer l.Close()
		for s := 0; s < 4; s++ {
			if _, err := l.Step(); err != nil {
				return err
			}
		}
		ck, err := l.CaptureCheckpoint(0)
		if err != nil {
			return err
		}
		want, err := l.FlatWeights()
		if err != nil {
			return err
		}

		l2, err := NewLearner(c, []nn.Layer{SmallBNFreeCNN(4, 8, 99)}, &SliceSource{X: x, Labels: labels, Rank: 0, Ranks: 1}, 3, 8, 8, cfg)
		if err != nil {
			return err
		}
		defer l2.Close()
		if err := l2.RestoreCheckpoint(ck); err != nil {
			return err
		}
		if l2.StepCount() != 4 {
			return fmt.Errorf("restored step count %d, want 4", l2.StepCount())
		}
		got, err := l2.FlatWeights()
		if err != nil {
			return err
		}
		for i := range want {
			if want[i] != got[i] {
				return fmt.Errorf("restored weight %d differs: %v vs %v", i, want[i], got[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
