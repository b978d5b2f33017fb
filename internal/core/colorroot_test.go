package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// rootRun is what every rank of runRootWorld ended with.
type rootRun struct {
	weights    [][]float32 // per rank
	snap       *checkpoint.Checkpoint
	stateBytes []int64 // per rank: OptimizerStateBytes
	gradSize   int
}

// runRootWorld trains the raw multi-colour route — where each colour's root
// steps its chunk and holds that chunk's momentum alone — at ranks × 2
// devices for steps steps from global step start, restoring snap first when
// it is non-nil, and captures a checkpoint at the end. The global batch is
// 48 at every world size, so the data stream resumes where it left off.
func runRootWorld(t *testing.T, ranks, start, steps int, snap *checkpoint.Checkpoint) rootRun {
	t.Helper()
	const devices, global = 2, 48
	x, labels := core.SyntheticTensorData(96, 4, 8, 31)
	out := rootRun{weights: make([][]float32, ranks), stateBytes: make([]int64, ranks)}
	var mu sync.Mutex
	w := mpi.NewWorld(ranks)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		reps := make([]nn.Layer, devices)
		for d := range reps {
			reps[d] = core.SmallBNFreeCNN(4, 8, int64(10*rank+d+1))
		}
		src := &core.SliceSource{X: x, Labels: labels, Rank: rank, Ranks: ranks, StartStep: start}
		l, err := core.NewLearner(c, reps, src, 3, 8, 8, core.Config{
			BatchPerDevice: global / (ranks * devices),
			Allreduce:      allreduce.AlgMultiColor,
			Schedule:       sgd.Const(0.05),
			SGD:            sgd.DefaultConfig(),
		})
		if err != nil {
			return err
		}
		defer l.Close()
		if snap != nil {
			if err := l.RestoreCheckpoint(snap); err != nil {
				return err
			}
		}
		for s := 0; s < steps; s++ {
			if _, err := l.Step(); err != nil {
				return fmt.Errorf("rank %d step %d: %w", rank, s, err)
			}
		}
		ck, err := l.CaptureCheckpoint(0)
		if err != nil {
			return err
		}
		weights, err := l.FlatWeights()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		out.weights[rank], out.stateBytes[rank] = weights, l.OptimizerStateBytes()
		out.gradSize = l.Engine().GradSize()
		if rank == 0 {
			out.snap = ck
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardRootMomentumSurvivesCheckpoint: on the raw multi-colour route a
// rank holds momentum only for the chunk it roots — none at all when it
// roots no colour (8 learners: k = 4 with rotation 2) — so the ranks hold
// one copy of the state between them, and a checkpoint must gather it. A run
// captured at step 5 and resumed in a fresh world of the same size must end
// on the uninterrupted run's weights bit for bit; resumed at 3 learners it
// must end with its replicas bitwise in sync.
func TestShardRootMomentumSurvivesCheckpoint(t *testing.T) {
	for _, ranks := range []int{4, 8} {
		t.Run(fmt.Sprintf("learners%d", ranks), func(t *testing.T) {
			whole := runRootWorld(t, ranks, 0, 10, nil)
			half := runRootWorld(t, ranks, 0, 5, nil)
			var held int64
			empty := 0
			for _, b := range half.stateBytes {
				held += b
				if b == 0 {
					empty++
				}
			}
			if held != 4*int64(half.gradSize) {
				t.Fatalf("ranks hold %d bytes of momentum between them, want one copy (%d)", held, 4*half.gradSize)
			}
			if want := map[int]int{4: 0, 8: 4}[ranks]; empty != want {
				t.Fatalf("%d ranks hold no momentum, want %d", empty, want)
			}
			resumed := runRootWorld(t, ranks, 5, 5, half.snap)
			for r := range resumed.weights {
				for i, v := range resumed.weights[r] {
					if v != whole.weights[r][i] {
						t.Fatalf("rank %d weight %d: %v resumed, %v uninterrupted", r, i, v, whole.weights[r][i])
					}
				}
			}
			shrunk := runRootWorld(t, 3, 5, 5, half.snap)
			for r := range shrunk.weights[1:] {
				for i, v := range shrunk.weights[r+1] {
					if v != shrunk.weights[0][i] {
						t.Fatalf("3 learners: rank %d weight %d = %v, rank 0 has %v", r+1, i, v, shrunk.weights[0][i])
					}
				}
			}
		})
	}
}
