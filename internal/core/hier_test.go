package core_test

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// runHier trains the standard small synthetic workload with hierarchical
// routing on (topology set) or off (flat), across the schedule switches.
func runHier(t *testing.T, comp compress.Config, topo mpi.Topology, overlap, shard bool, learners, devices, steps int) *elastic.Result {
	t.Helper()
	return smallJob(t, core.Config{
		Compression:    comp,
		Overlap:        overlap,
		ShardOptimizer: shard,
		Topology:       topo,
	}, learners, devices, steps)
}

// TestHierarchicalMatchesFlatTraining is the tentpole's end-to-end claim:
// routing the gradient exchange hierarchically is invisible to training —
// final parameters are bitwise identical to the flat exchange across exact
// and lossy codecs, in the phased AND the reactive/overlap schedule, with
// and without the sharded (ZeRO-1) optimizer. 4 learners on 2 nodes of 2.
func TestHierarchicalMatchesFlatTraining(t *testing.T) {
	const learners, devices, steps = 4, 1, 8
	topo := mpi.UniformTopology(learners, 2)
	for _, tc := range []struct {
		name string
		comp compress.Config
	}{
		{"none", compress.Config{Codec: "none", BucketFloats: 512}},
		{"int8", compress.Config{Codec: "int8", BucketFloats: 512}},
		{"topk-ef", compress.Config{Codec: "topk", TopKRatio: 0.25, ErrorFeedback: true, BucketFloats: 512}},
	} {
		for _, mode := range []struct {
			name           string
			overlap, shard bool
		}{
			{"phased", false, false},
			{"overlap", true, false},
			{"sharded", false, true},
			{"sharded-overlap", true, true},
		} {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				flat := runHier(t, tc.comp, mpi.Topology{}, mode.overlap, mode.shard, learners, devices, steps)
				hier := runHier(t, tc.comp, topo, mode.overlap, mode.shard, learners, devices, steps)
				requireSameWeights(t, flat, hier, "flat vs hierarchical")
			})
		}
	}
}

// TestHierarchicalUncompressedConfig: Topology alone (no codec, no overlap,
// no sharding) must route the step through the bucketed identity path and
// still keep every learner in sync.
func TestHierarchicalUncompressedConfig(t *testing.T) {
	const learners = 4
	topo := mpi.UniformTopology(learners, 2)
	res := runHier(t, compress.Config{}, topo, false, false, learners, 1, 6)
	requireInSync(t, res)
	if res.Ranks[0].CommStats.Buckets == 0 {
		t.Fatal("topology-routed run accounted no buckets — did it fall back to the raw allreduce?")
	}
}

// TestHierarchicalRejectsBadTopology: a topology that does not match the
// world size must fail the run before it starts, not corrupt the exchange —
// in the run loop, which lays it out per incarnation, and in the learner.
func TestHierarchicalRejectsBadTopology(t *testing.T) {
	const classes, size = 3, 8
	dataX, dataLabels := core.SyntheticTensorData(24, classes, size, 23)
	bad := mpi.UniformTopology(5, 2) // wrong world size
	_, err := elastic.Run(elastic.Config{
		Identities:  2,
		GlobalBatch: 12,
		Steps:       1,
		NewReplica:  func(seed int64) nn.Layer { return core.SmallBNFreeCNN(classes, size, 500+seed) },
		NewSource:   core.SliceSources(dataX, dataLabels),
		InputC:      3, InputH: size, InputW: size,
		Learner: core.Config{Schedule: sgd.Const(0.1), SGD: sgd.DefaultConfig(), Topology: bad},
	})
	if err == nil {
		t.Fatal("mismatched topology accepted by the run")
	}
	w := mpi.NewWorld(2)
	defer w.Close()
	err = w.Run(func(c *mpi.Comm) error {
		l, err := core.NewLearner(c, []nn.Layer{core.SmallBNFreeCNN(classes, size, 1)}, nil, 3, size, size,
			core.Config{BatchPerDevice: 6, Topology: bad})
		if err == nil {
			l.Close()
			t.Error("mismatched topology accepted by the learner")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
