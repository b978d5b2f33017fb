package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// bnFreeCNN builds a small model without batch norm so distributed and
// serial runs are numerically comparable (BN statistics are per-device).
func bnFreeCNN(classes, size int, seed int64) nn.Layer {
	return SmallBNFreeCNN(classes, size, seed)
}

func TestNewLearnerValidation(t *testing.T) {
	w := mpi.NewWorld(1)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		_, err := NewLearner(c, []nn.Layer{bnFreeCNN(2, 8, 1)}, nil, 3, 8, 8, Config{BatchPerDevice: 0})
		if err == nil {
			return fmt.Errorf("zero batch should error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSliceSourceDealsDisjointSlices(t *testing.T) {
	dataX, dataLabels := SyntheticTensorData(16, 2, 4, 3)
	s0 := &SliceSource{X: dataX, Labels: dataLabels, Rank: 0, Ranks: 2}
	s1 := &SliceSource{X: dataX, Labels: dataLabels, Rank: 1, Ranks: 2}
	x0 := tensor.New(4, 3, 4, 4)
	x1 := tensor.New(4, 3, 4, 4)
	l0 := make([]int, 4)
	l1 := make([]int, 4)
	if err := s0.NextBatch(x0, l0); err != nil {
		t.Fatal(err)
	}
	if err := s1.NextBatch(x1, l1); err != nil {
		t.Fatal(err)
	}
	// Step 0: rank 0 gets rows 0..3, rank 1 gets rows 4..7.
	rowLen := dataX.Len() / 16
	for i := 0; i < 4*rowLen; i++ {
		if x0.Data[i] != dataX.Data[i] {
			t.Fatal("rank 0 slice wrong")
		}
		if x1.Data[i] != dataX.Data[4*rowLen+i] {
			t.Fatal("rank 1 slice wrong")
		}
	}
	// Non-divisible dataset wraps deterministically instead of erroring.
	wrap := &SliceSource{X: dataX, Labels: dataLabels, Rank: 2, Ranks: 3}
	xw := tensor.New(5, 3, 4, 4) // global batch 15 over 16 images
	lw := make([]int, 5)
	if err := wrap.NextBatch(xw, lw); err != nil {
		t.Fatal(err)
	}
	if err := wrap.NextBatch(xw, lw); err != nil {
		t.Fatal(err)
	}
	// Step 1, rank 2: start = (15 + 10) % 16 = 9; rows 9..13.
	for i := 0; i < 5; i++ {
		if lw[i] != dataLabels[9+i] {
			t.Fatalf("wrapped slice labels %v", lw)
		}
	}
	// Batch larger than the dataset errors.
	big := &SliceSource{X: dataX, Labels: dataLabels, Rank: 0, Ranks: 1}
	if err := big.NextBatch(tensor.New(17, 3, 4, 4), make([]int, 17)); err == nil {
		t.Fatal("oversized node batch should error")
	}
}

func TestSyntheticTensorData(t *testing.T) {
	x, labels := SyntheticTensorData(12, 4, 8, 7)
	if x.Dim(0) != 12 || x.Dim(1) != 3 || x.Dim(2) != 8 {
		t.Fatalf("shape %v", x.Shape())
	}
	if !x.AllFinite() {
		t.Fatal("non-finite data")
	}
	for i, l := range labels {
		if l != i%4 {
			t.Fatalf("label %d = %d", i, l)
		}
	}
	// Determinism.
	y, _ := SyntheticTensorData(12, 4, 8, 7)
	if !x.ApproxEqual(y, 0) {
		t.Fatal("not deterministic")
	}
}

func TestLearnerCurrentLRFollowsSchedule(t *testing.T) {
	const size = 8
	dataX, dataLabels := SyntheticTensorData(8, 2, size, 1)
	w := mpi.NewWorld(1)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		l, err := NewLearner(c, []nn.Layer{bnFreeCNN(2, size, 1)},
			&SliceSource{X: dataX, Labels: dataLabels, Rank: 0, Ranks: 1},
			3, size, size,
			Config{
				BatchPerDevice: 4,
				Allreduce:      allreduce.AlgDefault,
				Schedule:       sgd.WarmupStep{Base: 0.1, Peak: 0.2, WarmupEpochs: 2, DropEvery: 30, DropFactor: 0.1},
				StepsPerEpoch:  2,
			})
		if err != nil {
			return err
		}
		defer l.Close()
		if lr := l.currentLR(); math.Abs(float64(lr)-0.1) > 1e-6 {
			return fmt.Errorf("step 0 LR %v, want 0.1", lr)
		}
		for i := 0; i < 2; i++ { // one epoch
			if _, err := l.Step(); err != nil {
				return err
			}
		}
		if lr := l.currentLR(); math.Abs(float64(lr)-0.15) > 1e-6 {
			return fmt.Errorf("epoch 1 LR %v, want 0.15 (mid-warmup)", lr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
