package core

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
)

// TestParamShardBoundsInvariants: the layout is contiguous, covering,
// param-aligned, and roughly balanced.
func TestParamShardBoundsInvariants(t *testing.T) {
	w := mpi.NewWorld(1)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		l, err := NewLearner(c, []nn.Layer{bnFreeCNN(3, 8, 1)}, nil, 3, 8, 8,
			Config{BatchPerDevice: 1, ShardOptimizer: true})
		if err != nil {
			return err
		}
		defer l.Close()
		if !l.Sharded() {
			t.Error("learner should report sharded")
		}
		if b := l.ShardBounds(); len(b) != 2 || b[0] != 0 || b[1] != l.Engine().GradSize() {
			t.Errorf("single-rank bounds %v", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Layout invariants over a fake multi-rank split of the same engine.
	w2 := mpi.NewWorld(1)
	defer w2.Close()
	_ = w2.Run(func(c *mpi.Comm) error {
		l, err := NewLearner(c, []nn.Layer{bnFreeCNN(3, 8, 1)}, nil, 3, 8, 8, Config{BatchPerDevice: 1})
		if err != nil {
			return err
		}
		defer l.Close()
		e := l.Engine()
		starts := map[int]bool{e.GradSize(): true}
		for p := 0; p < e.NumParams(); p++ {
			lo, _ := e.ParamRange(p)
			starts[lo] = true
		}
		for _, ranks := range []int{1, 2, 3, 5, 16} {
			eb := paramShardBounds(e, ranks)
			if eb[0] != 0 || eb[ranks] != e.GradSize() {
				t.Errorf("ranks=%d: bounds do not cover: %v", ranks, eb)
			}
			for r := 0; r < ranks; r++ {
				if eb[r] > eb[r+1] {
					t.Errorf("ranks=%d: bounds decrease at %d", ranks, r)
				}
				if !starts[eb[r]] {
					t.Errorf("ranks=%d: elem bound %d is not a parameter start", ranks, eb[r])
				}
			}
		}
		return nil
	})
}
