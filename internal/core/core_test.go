package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/dataset"
	"repro/internal/dimd"
	"repro/internal/imagecodec"
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

// TestSerialVsDistributedEquivalence is the repository's strongest
// correctness statement for Algorithm 1: a 4-learner × 2-device cluster
// processing the same global batches as a 1-learner × 1-device run must
// produce (near-)identical weights, because synchronous data-parallel SGD
// is mathematically the same computation regardless of the partitioning.
func TestSerialVsDistributedEquivalence(t *testing.T) {
	const classes, size = 3, 8
	const globalBatch = 8
	const steps = 6
	dataX, dataLabels := SyntheticTensorData(48, classes, size, 17)

	run := func(learners, devices int, alg allreduce.Algorithm) []float32 {
		t.Helper()
		res, err := RunCluster(ClusterConfig{
			Learners:       learners,
			DevicesPerNode: devices,
			NewReplica:     func(seed int64) nn.Layer { return bnFreeCNN(classes, size, 1000+seed) },
			NewSource: func(rank int) BatchSource {
				return &SliceSource{X: dataX, Labels: dataLabels, Rank: rank, Ranks: learners}
			},
			Steps:  steps,
			InputC: 3, InputH: size, InputW: size,
			Learner: Config{
				BatchPerDevice: globalBatch / (learners * devices),
				Allreduce:      alg,
				Schedule:       sgd.Const(0.05),
				SGD:            sgd.Config{Momentum: 0.9},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalWeights[0]
	}

	serial := run(1, 1, allreduce.AlgDefault)
	for _, tc := range []struct {
		learners, devices int
		alg               allreduce.Algorithm
	}{
		{2, 1, allreduce.AlgMultiColor},
		{4, 2, allreduce.AlgMultiColor},
		{4, 1, allreduce.AlgRing},
		{2, 2, allreduce.AlgRabenseifner},
	} {
		dist := run(tc.learners, tc.devices, tc.alg)
		if len(dist) != len(serial) {
			t.Fatalf("%+v: weight count differs", tc)
		}
		for i := range dist {
			if d := math.Abs(float64(dist[i] - serial[i])); d > 2e-4 {
				t.Fatalf("%dx%d/%s: weight[%d] = %v, serial %v (Δ %v)",
					tc.learners, tc.devices, tc.alg, i, dist[i], serial[i], d)
			}
		}
	}
}

// TestWeightsStayInSyncAcrossLearners checks the synchronous-SGD invariant:
// after any number of steps every learner holds identical weights.
func TestWeightsStayInSyncAcrossLearners(t *testing.T) {
	const classes, size = 4, 8
	dataX, dataLabels := SyntheticTensorData(64, classes, size, 5)
	res, err := RunCluster(ClusterConfig{
		Learners:       4,
		DevicesPerNode: 2,
		NewReplica:     func(seed int64) nn.Layer { return bnFreeCNN(classes, size, seed) },
		NewSource: func(rank int) BatchSource {
			return &SliceSource{X: dataX, Labels: dataLabels, Rank: rank, Ranks: 4}
		},
		Steps:  5,
		InputC: 3, InputH: size, InputW: size,
		Learner: Config{
			BatchPerDevice: 2,
			Allreduce:      allreduce.AlgMultiColor,
			Schedule:       sgd.Const(0.05),
			SGD:            sgd.DefaultConfig(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := res.FinalWeights[0]
	for r := 1; r < 4; r++ {
		for i := range ref {
			if res.FinalWeights[r][i] != ref[i] {
				t.Fatalf("learner %d weight[%d] = %v, learner 0 has %v", r, i, res.FinalWeights[r][i], ref[i])
			}
		}
	}
}

// TestTrainingConverges: the full distributed stack must actually learn.
func TestTrainingConverges(t *testing.T) {
	const classes, size = 3, 8
	dataX, dataLabels := SyntheticTensorData(24, classes, size, 23)
	var finalAcc float64
	_, err := RunCluster(ClusterConfig{
		Learners:       2,
		DevicesPerNode: 2,
		NewReplica:     func(seed int64) nn.Layer { return bnFreeCNN(classes, size, seed) },
		NewSource: func(rank int) BatchSource {
			return &SliceSource{X: dataX, Labels: dataLabels, Rank: rank, Ranks: 2}
		},
		Steps:  60,
		InputC: 3, InputH: size, InputW: size,
		Learner: Config{
			BatchPerDevice: 3,
			Allreduce:      allreduce.AlgMultiColor,
			Schedule:       sgd.Const(0.1),
			SGD:            sgd.DefaultConfig(),
		},
		EvalEvery: 60,
		Eval: func(step int, l *Learner) {
			acc, _, err := l.Evaluate(dataX, dataLabels)
			if err != nil {
				t.Error(err)
				return
			}
			finalAcc = acc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if finalAcc < 0.8 {
		t.Fatalf("distributed training reached only %.2f accuracy", finalAcc)
	}
}

// TestAccuracyInvarianceAcrossNodeCounts reproduces the claim behind the
// paper's Figures 13-16 ("none of the optimizations we presented have any
// impact on the final accuracy of the classifier"): training the same
// problem on 1, 2 and 4 learners with different allreduce algorithms and
// either DPT mode reaches the same quality.
func TestAccuracyInvarianceAcrossNodeCounts(t *testing.T) {
	const classes, size = 3, 8
	dataX, dataLabels := SyntheticTensorData(24, classes, size, 31)
	accs := map[string]float64{}
	for _, tc := range []struct {
		name     string
		learners int
		alg      allreduce.Algorithm
	}{
		{"1node-default", 1, allreduce.AlgDefault},
		{"2node-multicolor", 2, allreduce.AlgMultiColor},
		{"4node-ring", 4, allreduce.AlgRing},
	} {
		var acc float64
		_, err := RunCluster(ClusterConfig{
			Learners:       tc.learners,
			DevicesPerNode: 1,
			NewReplica:     func(seed int64) nn.Layer { return bnFreeCNN(classes, size, 100+seed) },
			NewSource: func(rank int) BatchSource {
				return &SliceSource{X: dataX, Labels: dataLabels, Rank: rank, Ranks: tc.learners}
			},
			Steps:  80,
			InputC: 3, InputH: size, InputW: size,
			Learner: Config{
				BatchPerDevice: 12 / tc.learners,
				Allreduce:      tc.alg,
				Schedule:       sgd.Const(0.1),
				SGD:            sgd.DefaultConfig(),
			},
			EvalEvery: 80,
			Eval: func(step int, l *Learner) {
				a, _, err := l.Evaluate(dataX, dataLabels)
				if err == nil {
					acc = a
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		accs[tc.name] = acc
	}
	for name, acc := range accs {
		if acc < 0.8 {
			t.Fatalf("%s reached only %.2f accuracy (all: %v)", name, acc, accs)
		}
	}
}

// TestDIMDEndToEndTraining drives the complete paper pipeline: synthetic
// corpus -> codec pack -> partitioned load -> periodic alltoallv shuffle ->
// random in-memory batches -> decode+augment -> distributed training.
func TestDIMDEndToEndTraining(t *testing.T) {
	const classes = 3
	const imgSize = 40 // stored size; crop 32
	corpus, err := dataset.New(dataset.Spec{Classes: classes, Train: 48, Val: 12, Size: imgSize, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pack := dimd.Build(48, func(i int) (int, []byte) {
		return corpus.Label(i), corpus.EncodedImage(i, 85)
	})
	const learners = 2
	stores := make([]*dimd.Store, learners)
	for r := range stores {
		s, err := dimd.LoadPartition(pack, r, learners)
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = s
	}
	aug := imagecodec.Augment{Crop: 32, Mean: [3]float32{0.5, 0.5, 0.5}, Std: [3]float32{0.25, 0.25, 0.25}}
	var losses []float64
	res, err := RunCluster(ClusterConfig{
		Learners:       learners,
		DevicesPerNode: 2,
		NewReplica:     func(seed int64) nn.Layer { return bnFreeCNN(classes, 32, seed) },
		NewSource: func(rank int) BatchSource {
			return &DIMDSource{Store: stores[rank], Aug: aug, RNG: tensor.NewRNG(int64(rank) + 70)}
		},
		Stores:       func(rank int) *dimd.Store { return stores[rank] },
		ShuffleEvery: 5,
		Steps:        20,
		InputC:       3, InputH: 32, InputW: 32,
		Learner: Config{
			BatchPerDevice: 4,
			Allreduce:      allreduce.AlgMultiColor,
			Schedule:       sgd.Const(0.05),
			SGD:            sgd.DefaultConfig(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	losses = res.Losses[0]
	first, last := losses[0], losses[len(losses)-1]
	if !(last < first) {
		t.Fatalf("DIMD training did not reduce loss: %v -> %v", first, last)
	}
	// Shuffle must have preserved the corpus across stores.
	total := 0
	for _, s := range stores {
		total += s.Len()
	}
	if total != 48 {
		t.Fatalf("after shuffles stores hold %d records, want 48", total)
	}
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
