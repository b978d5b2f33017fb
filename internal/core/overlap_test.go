package core_test

import (
	"testing"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// runOverlap trains the standard small synthetic workload with the given
// compression config and overlap switch.
func runOverlap(t *testing.T, comp compress.Config, overlap bool, learners, devices, steps, inFlight int) *elastic.Result {
	t.Helper()
	return smallJob(t, core.Config{
		Allreduce:       allreduce.AlgMultiColor,
		Compression:     comp,
		Overlap:         overlap,
		OverlapInFlight: inFlight,
	}, learners, devices, steps)
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
			requireSameWeights(t, phased, overlapped, "phased vs overlapped")
			// Identical wire traffic, too: same payloads, different schedule.
			if a, b := phased.Ranks[0].CommStats, overlapped.Ranks[0].CommStats; a != b {
				t.Fatalf("comm stats: phased %+v, overlapped %+v", a, b)
			}
		})
	}
}

// TestOverlapLearnersStayInSync: the synchronous-SGD invariant holds under
// the reactive pipeline — every learner ends bitwise identical.
func TestOverlapLearnersStayInSync(t *testing.T) {
	requireInSync(t, runOverlap(t, compress.Config{Codec: "int8", BucketFloats: 256}, true, 4, 1, 8, 2))
}

// TestOverlapConverges: the overlapped stack must actually learn.
func TestOverlapConverges(t *testing.T) {
	res := runOverlap(t, compress.Config{}, true, 2, 2, 60, 0)
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if !(last < first/2) {
		t.Fatalf("overlapped training stalled: %v -> %v", first, last)
	}
}

// TestOverlapAccountsTraffic: the reactive path must report allreduce wire
// bytes through CommStats, like the phased compressed path does.
func TestOverlapAccountsTraffic(t *testing.T) {
	dataX, dataLabels := core.SyntheticTensorData(8, 2, 8, 1)
	w := mpi.NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		l, err := core.NewLearner(c, []nn.Layer{core.SmallBNFreeCNN(2, 8, int64(c.Rank())+1)},
			&core.SliceSource{X: dataX, Labels: dataLabels, Rank: c.Rank(), Ranks: 2},
			3, 8, 8,
			core.Config{BatchPerDevice: 2, Overlap: true, Compression: compress.Config{BucketFloats: 128}})
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
		_, err := core.NewLearner(c, []nn.Layer{core.SmallBNFreeCNN(2, 8, 1)}, nil, 3, 8, 8,
			core.Config{BatchPerDevice: 2, Overlap: true, Compression: compress.Config{Codec: "bogus"}})
		if err == nil {
			t.Error("unknown codec should fail construction")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBackwardNotifyAllocatesNothing: readiness notification over the
// overlap workload's model names each leaf's parameters from the slice the
// layer keeps, so a warmed-up notified backward allocates nothing.
func TestBackwardNotifyAllocatesNothing(t *testing.T) {
	m := core.OverlapBenchModel(8, 24, 1)
	x := tensor.New(4, 3, 24, 24)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	g := tensor.Full(0.01, m.Forward(x, true).Shape()...)
	notified := 0
	hook := func(*nn.Param) { notified++ }
	nn.BackwardNotify(m, g, hook)
	if want := len(m.Params()); notified != want {
		t.Fatalf("hook fired %d times, want once for each of %d params", notified, want)
	}
	if n := testing.AllocsPerRun(20, func() { nn.BackwardNotify(m, g, hook) }); n != 0 {
		t.Fatalf("BackwardNotify allocates %v times a call", n)
	}
}
