package core

import (
	"testing"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// runOverlap trains the standard small synthetic workload with the given
// compression config and overlap switch.
func runOverlap(t *testing.T, comp compress.Config, overlap bool, learners, devices, steps, inFlight int) *ClusterResult {
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
			BatchPerDevice:  12 / (learners * devices),
			Allreduce:       allreduce.AlgMultiColor,
			Schedule:        sgd.Const(0.1),
			SGD:             sgd.DefaultConfig(),
			Compression:     comp,
			Overlap:         overlap,
			OverlapInFlight: inFlight,
		},
	})
	if err != nil {
		t.Fatalf("overlap=%v compression=%+v: %v", overlap, comp, err)
	}
	return res
}

// TestOverlapMatchesPhasedBitwise is the serial-vs-overlapped equivalence
// statement of the reactive pipeline: hiding the bucketed allreduce under
// backward compute is a pure scheduling change, so after many steps on a
// multi-learner, multi-device cluster the parameters must be bitwise
// identical to the phased path — under the exact identity codec and under
// lossy int8/top-k (with and without error feedback) alike.
func TestOverlapMatchesPhasedBitwise(t *testing.T) {
	const learners, devices, steps = 3, 2, 12
	for _, tc := range []struct {
		name    string
		phased  compress.Config
		overlap compress.Config
	}{
		// Overlap with no codec configured runs the identity codec over the
		// bucketed transport — the phased twin is Codec "none".
		{"uncompressed", compress.Config{Codec: "none", BucketFloats: 512}, compress.Config{BucketFloats: 512}},
		{"int8", compress.Config{Codec: "int8", BucketFloats: 512}, compress.Config{Codec: "int8", BucketFloats: 512}},
		{"topk-ef", compress.Config{Codec: "topk", TopKRatio: 0.25, ErrorFeedback: true, BucketFloats: 512},
			compress.Config{Codec: "topk", TopKRatio: 0.25, ErrorFeedback: true, BucketFloats: 512}},
		// A bucket size that splits parameters mid-tensor stresses the
		// range bookkeeping.
		{"int8-tiny-buckets", compress.Config{Codec: "int8", BucketFloats: 37}, compress.Config{Codec: "int8", BucketFloats: 37}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			phased := runOverlap(t, tc.phased, false, learners, devices, steps, 0)
			overlapped := runOverlap(t, tc.overlap, true, learners, devices, steps, 3)
			for r := 0; r < learners; r++ {
				if len(phased.FinalWeights[r]) != len(overlapped.FinalWeights[r]) {
					t.Fatalf("rank %d weight counts differ", r)
				}
				for i := range phased.FinalWeights[r] {
					if phased.FinalWeights[r][i] != overlapped.FinalWeights[r][i] {
						t.Fatalf("rank %d weight[%d]: phased %v, overlapped %v",
							r, i, phased.FinalWeights[r][i], overlapped.FinalWeights[r][i])
					}
				}
			}
			// Identical wire traffic, too: same payloads, different schedule.
			if phased.CommStats[0] != overlapped.CommStats[0] {
				t.Fatalf("comm stats: phased %+v, overlapped %+v", phased.CommStats[0], overlapped.CommStats[0])
			}
		})
	}
}

// TestOverlapLearnersStayInSync: the synchronous-SGD invariant holds under
// the reactive pipeline — every learner ends bitwise identical.
func TestOverlapLearnersStayInSync(t *testing.T) {
	res := runOverlap(t, compress.Config{Codec: "int8", BucketFloats: 256}, true, 4, 1, 8, 2)
	ref := res.FinalWeights[0]
	for r := 1; r < 4; r++ {
		for i := range ref {
			if res.FinalWeights[r][i] != ref[i] {
				t.Fatalf("learner %d weight[%d] = %v, learner 0 has %v", r, i, res.FinalWeights[r][i], ref[i])
			}
		}
	}
}

// TestOverlapConverges: the overlapped stack must actually learn.
func TestOverlapConverges(t *testing.T) {
	res := runOverlap(t, compress.Config{}, true, 2, 2, 60, 0)
	losses := res.Losses[0]
	first, last := losses[0], losses[len(losses)-1]
	if !(last < first/2) {
		t.Fatalf("overlapped training stalled: %v -> %v", first, last)
	}
}

// TestOverlapAccountsTraffic: the reactive path must report allreduce wire
// bytes through CommStats, like the phased compressed path does.
func TestOverlapAccountsTraffic(t *testing.T) {
	dataX, dataLabels := SyntheticTensorData(8, 2, 8, 1)
	w := mpi.NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		l, err := NewLearner(c, []nn.Layer{bnFreeCNN(2, 8, int64(c.Rank())+1)},
			&SliceSource{X: dataX, Labels: dataLabels, Rank: c.Rank(), Ranks: 2},
			3, 8, 8,
			Config{BatchPerDevice: 2, Overlap: true, Compression: compress.Config{BucketFloats: 128}})
		if err != nil {
			return err
		}
		defer l.Close()
		if _, err := l.Step(); err != nil {
			return err
		}
		cs := l.CommStats()
		if cs.BytesSent == 0 || cs.Buckets == 0 {
			t.Errorf("comm stats empty: %+v", cs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOverlapRejectsUnknownCodec: overlap still validates the codec.
func TestOverlapRejectsUnknownCodec(t *testing.T) {
	w := mpi.NewWorld(1)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		_, err := NewLearner(c, []nn.Layer{bnFreeCNN(2, 8, 1)}, nil, 3, 8, 8,
			Config{BatchPerDevice: 2, Overlap: true, Compression: compress.Config{Codec: "bogus"}})
		if err == nil {
			t.Error("unknown codec should fail construction")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
