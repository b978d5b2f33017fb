package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// runCompressed trains the standard small synthetic workload under the given
// compression config and returns final losses + the cluster result.
func runCompressed(t *testing.T, comp compress.Config, learners, devices, steps int) *ClusterResult {
	t.Helper()
	const classes, size = 3, 8
	dataX, dataLabels := SyntheticTensorData(24, classes, size, 23)
	res, err := RunCluster(ClusterConfig{
		Learners:       learners,
		DevicesPerNode: devices,
		NewReplica:     func(seed int64) nn.Layer { return bnFreeCNN(classes, size, 500+seed) },
		NewSource: func(rank int) BatchSource {
			return &SliceSource{X: dataX, Labels: dataLabels, Rank: rank, Ranks: learners}
		},
		Steps:  steps,
		InputC: 3, InputH: size, InputW: size,
		Learner: Config{
			BatchPerDevice: 12 / (learners * devices),
			Allreduce:      allreduce.AlgMultiColor,
			Schedule:       sgd.Const(0.1),
			SGD:            sgd.DefaultConfig(),
			Compression:    comp,
		},
	})
	if err != nil {
		t.Fatalf("compression %+v: %v", comp, err)
	}
	return res
}

func meanTail(losses []float64, k int) float64 {
	if k > len(losses) {
		k = len(losses)
	}
	var s float64
	for _, l := range losses[len(losses)-k:] {
		s += l
	}
	return s / float64(k)
}

// The "none" codec runs the bucketed path with identity compression, so it
// must reproduce the uncompressed run exactly — same arithmetic, different
// transport.
func TestBucketedNoneMatchesUncompressedExactly(t *testing.T) {
	plain := runCompressed(t, compress.Config{}, 2, 2, 10)
	none := runCompressed(t, compress.Config{Codec: "none", BucketFloats: 1024}, 2, 2, 10)
	for i := range plain.FinalWeights[0] {
		if plain.FinalWeights[0][i] != none.FinalWeights[0][i] {
			t.Fatalf("weight[%d]: plain %v, bucketed-none %v", i,
				plain.FinalWeights[0][i], none.FinalWeights[0][i])
		}
	}
	if none.CommStats[0].BytesSent == 0 || plain.CommStats[0].BytesSent != 0 {
		t.Fatalf("comm stats: plain %+v, none %+v", plain.CommStats[0], none.CommStats[0])
	}
}

// Convergence parity (the ISSUE's acceptance bar, tightened): top-k with
// error feedback must land within tolerance of the uncompressed final loss,
// and int8 must as well.
func TestCompressedTrainingLossParity(t *testing.T) {
	const learners, devices, steps = 2, 2, 60
	base := runCompressed(t, compress.Config{}, learners, devices, steps)
	baseLoss := meanTail(base.Losses[0], 5)
	for _, comp := range []compress.Config{
		{Codec: "int8", BucketFloats: 2048},
		{Codec: "topk", TopKRatio: 0.25, ErrorFeedback: true, BucketFloats: 2048},
	} {
		res := runCompressed(t, comp, learners, devices, steps)
		loss := meanTail(res.Losses[0], 5)
		// Losses are small near convergence; compare absolute gap against a
		// fraction of the starting loss to avoid dividing by ~0.
		start := base.Losses[0][0]
		if math.Abs(loss-baseLoss) > 0.10*start {
			t.Fatalf("%s: final loss %v vs uncompressed %v (start %v) — diverged",
				comp.Codec, loss, baseLoss, start)
		}
		if res.CommStats[0].BytesSent >= res.CommStats[0].RawBytes {
			t.Fatalf("%s: sent %d bytes >= raw %d", comp.Codec,
				res.CommStats[0].BytesSent, res.CommStats[0].RawBytes)
		}
	}
}

// Lossy codecs must not break the synchronous-SGD invariant: every learner
// holds bitwise-identical weights after any number of steps.
func TestCompressedWeightsStayInSync(t *testing.T) {
	for _, comp := range []compress.Config{
		{Codec: "int8", BucketFloats: 1024},
		{Codec: "topk", TopKRatio: 0.1, ErrorFeedback: true, BucketFloats: 1024},
	} {
		res := runCompressed(t, comp, 4, 1, 8)
		ref := res.FinalWeights[0]
		for r := 1; r < 4; r++ {
			for i := range ref {
				if res.FinalWeights[r][i] != ref[i] {
					t.Fatalf("%s: learner %d weight[%d] = %v, learner 0 has %v",
						comp.Codec, r, i, res.FinalWeights[r][i], ref[i])
				}
			}
		}
	}
}

// Error feedback must measurably help top-k at aggressive sparsity: the
// EF run's final loss should not be worse than the no-EF run's.
func TestErrorFeedbackHelpsTopK(t *testing.T) {
	const learners, devices, steps = 2, 1, 60
	noEF := runCompressed(t, compress.Config{Codec: "topk", TopKRatio: 0.05, BucketFloats: 512}, learners, devices, steps)
	withEF := runCompressed(t, compress.Config{Codec: "topk", TopKRatio: 0.05, ErrorFeedback: true, BucketFloats: 512}, learners, devices, steps)
	lossNo := meanTail(noEF.Losses[0], 10)
	lossEF := meanTail(withEF.Losses[0], 10)
	if lossEF > lossNo+0.05 {
		t.Fatalf("error feedback hurt: with EF %v, without %v", lossEF, lossNo)
	}
}

// A compressed step is accounted on both stats surfaces: the engine counts
// the step, CommStats the exchange's wire bytes (the engine no longer
// mirrors them).
func TestCompressionThreadedThroughEngine(t *testing.T) {
	comp := compress.Config{Codec: "int8", BucketFloats: 1024}
	dataX, dataLabels := SyntheticTensorData(8, 2, 8, 1)
	w := mpi.NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		l, err := NewLearner(c, []nn.Layer{bnFreeCNN(2, 8, int64(c.Rank())+1)},
			&SliceSource{X: dataX, Labels: dataLabels, Rank: c.Rank(), Ranks: 2},
			3, 8, 8,
			Config{BatchPerDevice: 2, Compression: comp})
		if err != nil {
			return err
		}
		defer l.Close()
		if _, err := l.Step(); err != nil {
			return err
		}
		st := l.Engine().Stats()
		cs := l.CommStats()
		if st.Steps != 1 || cs.BytesSent+cs.BytesRecv == 0 {
			return fmt.Errorf("engine steps %d, comm stats sent+recv %d", st.Steps, cs.BytesSent+cs.BytesRecv)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompressedConfigValidation(t *testing.T) {
	_, err := RunCluster(ClusterConfig{
		Learners:       1,
		DevicesPerNode: 1,
		NewReplica:     func(seed int64) nn.Layer { return bnFreeCNN(2, 8, seed) },
		NewSource: func(rank int) BatchSource {
			x, l := SyntheticTensorData(8, 2, 8, 1)
			return &SliceSource{X: x, Labels: l, Rank: 0, Ranks: 1}
		},
		Steps:  1,
		InputC: 3, InputH: 8, InputW: 8,
		Learner: Config{
			BatchPerDevice: 4,
			Compression:    compress.Config{Codec: "bogus"},
		},
	})
	if err == nil {
		t.Fatal("unknown codec should fail learner construction")
	}
}
