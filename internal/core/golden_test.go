package core_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// weightHash is FNV-1a over the bits of a flattened model.
func weightHash(w []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range w {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenWeightHashes pins the final weights of two 20-step jobs —
// TinyResNet-8 on 4 ranks × 2 devices, once over the raw multi-colour
// allreduce and once over int8 with error feedback, the overlapped pipeline
// and the sharded optimizer on a 2×2 topology — to hashes recorded before
// the multi-colour tree moved the SGD step to its colour roots. Training is
// the same bits on every machine shape: the test runs at GOMAXPROCS 1 and 4,
// and `make cross` runs it again under -tags purego, so an FMA, a kernel
// split that depends on the worker count or a changed reduction order fails
// here. A failure means the arithmetic moved, not that the hashes want
// updating.
func TestGoldenWeightHashes(t *testing.T) {
	const classes, size = 4, 8
	x, labels := core.SyntheticTensorData(64, classes, size, 12)
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want uint64
	}{
		{"multicolor", core.Config{Allreduce: allreduce.AlgMultiColor}, 0x1a2dd9d40c247ec9},
		{"int8-ef-overlap-sharded-2x2", core.Config{
			Compression:    compress.Config{Codec: "int8", ErrorFeedback: true, BucketFloats: 1024},
			Overlap:        true,
			ShardOptimizer: true,
			Topology:       mpi.UniformTopology(4, 2),
		}, 0xf77ac1ea5bd17797},
	} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := tc.cfg
				cfg.Schedule = sgd.Const(0.05)
				cfg.SGD = sgd.DefaultConfig()
				res := train(t, elastic.Config{
					Identities:     4,
					DevicesPerNode: 2,
					GlobalBatch:    16,
					Steps:          20,
					NewReplica: func(seed int64) nn.Layer {
						return models.NewTinyResNet(classes, 1, tensor.NewRNG(seed))
					},
					NewSource: core.SliceSources(x, labels),
					InputC:    3, InputH: size, InputW: size,
					Learner: cfg,
				})
				requireInSync(t, res)
				if got := weightHash(res.Ranks[0].Weights); got != tc.want {
					t.Fatalf("final weights hash %#016x, want %#016x", got, tc.want)
				}
			})
		}
	}
}
