package core_test

import (
	"math"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dimd"
	"repro/internal/elastic"
	"repro/internal/imagecodec"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// These tests train whole jobs, so they drive the run loop (elastic.Run
// with no faults scheduled) from outside the package, as every caller does.

// train runs cfg to completion or fails the test.
func train(t *testing.T, cfg elastic.Config) *elastic.Result {
	t.Helper()
	res, err := elastic.Run(cfg)
	if err != nil {
		t.Fatalf("learner config %+v: %v", cfg.Learner, err)
	}
	return res
}

// smallJob trains the standard small synthetic workload — the BN-free CNN
// on 24 images of 3 classes at 8×8, a global batch of 12 (rounded down to a
// whole batch per device) at learning rate 0.1 — with lcfg's exchange
// settings.
func smallJob(t *testing.T, lcfg core.Config, learners, devices, steps int) *elastic.Result {
	t.Helper()
	const classes, size = 3, 8
	x, labels := core.SyntheticTensorData(24, classes, size, 23)
	lcfg.Schedule = sgd.Const(0.1)
	lcfg.SGD = sgd.DefaultConfig()
	return train(t, elastic.Config{
		Identities:     learners,
		DevicesPerNode: devices,
		GlobalBatch:    12 / (learners * devices) * learners * devices,
		Steps:          steps,
		NewReplica:     func(seed int64) nn.Layer { return core.SmallBNFreeCNN(classes, size, 500+seed) },
		NewSource:      core.SliceSources(x, labels),
		InputC:         3, InputH: size, InputW: size,
		Learner: lcfg,
	})
}

// requireSameWeights fails unless a and b left every rank the same weights.
func requireSameWeights(t *testing.T, a, b *elastic.Result, what string) {
	t.Helper()
	for r := range a.Ranks {
		wa, wb := a.Ranks[r].Weights, b.Ranks[r].Weights
		if len(wa) != len(wb) {
			t.Fatalf("%s: rank %d weight counts differ", what, r)
		}
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("%s: rank %d weight[%d]: %v vs %v", what, r, i, wa[i], wb[i])
			}
		}
	}
}

// requireInSync fails unless every rank of res holds rank 0's weights.
func requireInSync(t *testing.T, res *elastic.Result) {
	t.Helper()
	ref := res.Ranks[0].Weights
	for r, rr := range res.Ranks[1:] {
		for i := range ref {
			if rr.Weights[i] != ref[i] {
				t.Fatalf("learner %d weight[%d] = %v, learner 0 has %v", r+1, i, rr.Weights[i], ref[i])
			}
		}
	}
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
	dataX, dataLabels := core.SyntheticTensorData(48, classes, size, 17)

	run := func(learners, devices int, alg allreduce.Algorithm) []float32 {
		t.Helper()
		return train(t, elastic.Config{
			Identities:     learners,
			DevicesPerNode: devices,
			GlobalBatch:    globalBatch,
			Steps:          steps,
			NewReplica:     func(seed int64) nn.Layer { return core.SmallBNFreeCNN(classes, size, 1000+seed) },
			NewSource:      core.SliceSources(dataX, dataLabels),
			InputC:         3, InputH: size, InputW: size,
			Learner: core.Config{
				Allreduce: alg,
				Schedule:  sgd.Const(0.05),
				SGD:       sgd.Config{Momentum: 0.9},
			},
		}).Ranks[0].Weights
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
	dataX, dataLabels := core.SyntheticTensorData(64, classes, size, 5)
	requireInSync(t, train(t, elastic.Config{
		Identities:     4,
		DevicesPerNode: 2,
		GlobalBatch:    16,
		Steps:          5,
		NewReplica:     func(seed int64) nn.Layer { return core.SmallBNFreeCNN(classes, size, seed) },
		NewSource:      core.SliceSources(dataX, dataLabels),
		InputC:         3, InputH: size, InputW: size,
		Learner: core.Config{
			Allreduce: allreduce.AlgMultiColor,
			Schedule:  sgd.Const(0.05),
			SGD:       sgd.DefaultConfig(),
		},
	}))
}

// accuracyAfter trains learners on 24 images of 3 classes at 8×8 (dataset
// seed seed, replica seeds offset by replicaSeed) for steps steps and
// returns rank 0's final training accuracy.
func accuracyAfter(t *testing.T, learners, devices, steps int, alg allreduce.Algorithm, seed, replicaSeed int64) float64 {
	t.Helper()
	const classes, size = 3, 8
	dataX, dataLabels := core.SyntheticTensorData(24, classes, size, seed)
	var acc float64
	train(t, elastic.Config{
		Identities:     learners,
		DevicesPerNode: devices,
		GlobalBatch:    12,
		Steps:          steps,
		NewReplica:     func(s int64) nn.Layer { return core.SmallBNFreeCNN(classes, size, replicaSeed+s) },
		NewSource:      core.SliceSources(dataX, dataLabels),
		InputC:         3, InputH: size, InputW: size,
		Learner: core.Config{
			Allreduce: alg,
			Schedule:  sgd.Const(0.1),
			SGD:       sgd.DefaultConfig(),
		},
		Eval: func(l *core.Learner) {
			a, _, err := l.Evaluate(dataX, dataLabels)
			if err != nil {
				t.Error(err)
			}
			acc = a
		},
	})
	return acc
}

// TestTrainingConverges: the full distributed stack must actually learn.
func TestTrainingConverges(t *testing.T) {
	if acc := accuracyAfter(t, 2, 2, 60, allreduce.AlgMultiColor, 23, 0); acc < 0.8 {
		t.Fatalf("distributed training reached only %.2f accuracy", acc)
	}
}

// TestAccuracyInvarianceAcrossNodeCounts reproduces the claim behind the
// paper's Figures 13-16 ("none of the optimizations we presented have any
// impact on the final accuracy of the classifier"): training the same
// problem on 1, 2 and 4 learners with different allreduce algorithms
// reaches the same quality.
func TestAccuracyInvarianceAcrossNodeCounts(t *testing.T) {
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
		accs[tc.name] = accuracyAfter(t, tc.learners, 1, 80, tc.alg, 31, 100)
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
	corpus, err := dataset.New(dataset.Spec{Classes: classes, Train: 48, Size: imgSize, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pack := dimd.Build(48, func(i int) (int, []byte) {
		return corpus.Label(i), corpus.EncodedImage(i, 85)
	})
	const learners = 2
	stores := make([]*dimd.Store, learners)
	aug := imagecodec.Augment{Crop: 32, Mean: [3]float32{0.5, 0.5, 0.5}, Std: [3]float32{0.25, 0.25, 0.25}}
	res := train(t, elastic.Config{
		Identities:     learners,
		DevicesPerNode: 2,
		GlobalBatch:    16,
		Steps:          20,
		NewReplica:     func(seed int64) nn.Layer { return core.SmallBNFreeCNN(classes, 32, seed) },
		NewSource: func(rank, ranks, _ int) (core.BatchSource, error) {
			s, err := dimd.LoadPartition(pack, rank, ranks)
			stores[rank] = s
			return &core.DIMDSource{Store: s, Aug: aug, RNG: tensor.NewRNG(int64(rank) + 70)}, err
		},
		ShuffleEvery: 5,
		InputC:       3, InputH: 32, InputW: 32,
		Learner: core.Config{
			Allreduce: allreduce.AlgMultiColor,
			Schedule:  sgd.Const(0.05),
			SGD:       sgd.DefaultConfig(),
		},
	})
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
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
