package core_test

import (
	"testing"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/elastic"
)

// runSharded trains the standard small synthetic workload with the given
// compression config, overlap switch, and the sharded optimizer on or off.
func runSharded(t *testing.T, comp compress.Config, overlap, shard bool, learners, devices, steps int) *elastic.Result {
	t.Helper()
	return smallJob(t, core.Config{
		Allreduce:      allreduce.AlgMultiColor,
		Compression:    comp,
		Overlap:        overlap,
		ShardOptimizer: shard,
	}, learners, devices, steps)
}

// TestShardedMatchesReplicatedBitwise is the ZeRO-1 correctness statement:
// reduce-scatter → shard update → parameter allgather must produce exactly
// the weights the replicated path (full exchange, full update on every rank)
// produces — bitwise, across exact and lossy codecs, in the phased AND the
// reactive/overlap schedule. Bucket sizes that split parameters mid-tensor
// stress the bucket↔shard bookkeeping.
func TestShardedMatchesReplicatedBitwise(t *testing.T) {
	const learners, devices, steps = 3, 2, 10
	for _, tc := range []struct {
		name string
		comp compress.Config
	}{
		{"none", compress.Config{Codec: "none", BucketFloats: 512}},
		{"int8", compress.Config{Codec: "int8", BucketFloats: 512}},
		{"topk-ef", compress.Config{Codec: "topk", TopKRatio: 0.25, ErrorFeedback: true, BucketFloats: 512}},
		{"int8-tiny-buckets", compress.Config{Codec: "int8", BucketFloats: 37}},
	} {
		for _, overlap := range []bool{false, true} {
			name := tc.name + "/phased"
			if overlap {
				name = tc.name + "/overlap"
			}
			t.Run(name, func(t *testing.T) {
				replicated := runSharded(t, tc.comp, overlap, false, learners, devices, steps)
				sharded := runSharded(t, tc.comp, overlap, true, learners, devices, steps)
				requireSameWeights(t, replicated, sharded, "replicated vs sharded")
			})
		}
	}
}

// TestShardedPhasedMatchesShardedOverlap: within sharded mode, the reactive
// schedule is still a pure scheduling change — identical weights AND
// identical wire traffic versus the phased sharded step.
func TestShardedPhasedMatchesShardedOverlap(t *testing.T) {
	const learners, devices, steps = 3, 2, 8
	comp := compress.Config{Codec: "int8", BucketFloats: 256}
	phased := runSharded(t, comp, false, true, learners, devices, steps)
	overlapped := runSharded(t, comp, true, true, learners, devices, steps)
	requireSameWeights(t, phased, overlapped, "phased vs overlapped sharded")
	if a, b := phased.Ranks[0].CommStats, overlapped.Ranks[0].CommStats; a != b {
		t.Fatalf("comm stats: phased %+v, overlapped %+v", a, b)
	}
}

// TestShardedLearnersStayInSync: the allgather must leave every rank's every
// device bitwise identical after each step.
func TestShardedLearnersStayInSync(t *testing.T) {
	requireInSync(t, runSharded(t, compress.Config{Codec: "int8", BucketFloats: 256}, false, true, 4, 1, 8))
}

// TestShardedOptimizerStateScales: the point of ZeRO-1 — per-rank momentum
// memory must shrink as ~1/world-size versus the replicated full copy, and
// it must cut wire bytes versus the replicated exchange too (payloads travel
// to shard owners only).
func TestShardedOptimizerStateScales(t *testing.T) {
	const learners, devices, steps = 4, 2, 2
	comp := compress.Config{Codec: "none", BucketFloats: 256}
	replicated := runSharded(t, comp, false, false, learners, devices, steps)
	sharded := runSharded(t, comp, false, true, learners, devices, steps)

	// Shards are whole parameters, so the balance guarantee is
	// total/ranks plus at most one straddling parameter.
	var largestParam int64
	for _, p := range core.SmallBNFreeCNN(3, 8, 1).Params() {
		if n := int64(4 * p.Value.Len()); n > largestParam {
			largestParam = n
		}
	}
	var shardTotal int64
	gradBytes := int64(4 * len(replicated.Ranks[0].Weights))
	for r := 0; r < learners; r++ {
		if got := replicated.Ranks[r].OptStateBytes; got != int64(devices)*gradBytes {
			t.Fatalf("replicated rank %d holds %d optimizer bytes, want %d (one replica per device)",
				r, got, int64(devices)*gradBytes)
		}
		got := sharded.Ranks[r].OptStateBytes
		if max := gradBytes/int64(learners) + largestParam; got > max {
			t.Fatalf("sharded rank %d holds %d optimizer bytes, want ≤ %d (total/ranks + one param)", r, got, max)
		}
		shardTotal += got
	}
	if shardTotal != gradBytes {
		t.Fatalf("shards hold %d bytes total, want exactly one state copy %d", shardTotal, gradBytes)
	}
	if s, r := sharded.Ranks[0].CommStats.BytesSent, replicated.Ranks[0].CommStats.BytesSent; s >= r {
		t.Fatalf("sharded exchange sent %d bytes, replicated %d — owner routing must cut gradient traffic", s, r)
	}
}

// TestShardedConverges: the sharded stack must actually learn.
func TestShardedConverges(t *testing.T) {
	res := runSharded(t, compress.Config{}, false, true, 2, 2, 60)
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	if !(last < first/2) {
		t.Fatalf("sharded training stalled: %v -> %v", first, last)
	}
}

// TestShardedSingleRank: a one-rank world owns everything; the path must
// degrade to the replicated semantics without communication.
func TestShardedSingleRank(t *testing.T) {
	repl := runSharded(t, compress.Config{Codec: "none", BucketFloats: 128}, false, false, 1, 2, 6)
	shrd := runSharded(t, compress.Config{Codec: "none", BucketFloats: 128}, false, true, 1, 2, 6)
	requireSameWeights(t, repl, shrd, "single-rank replicated vs sharded")
}

// TestShardedMoreRanksThanParams: ranks starved of parameters (empty shards)
// must participate correctly in the exchange and the allgather.
func TestShardedMoreRanksThanParams(t *testing.T) {
	// SmallBNFreeCNN has 4 params; 6 learners guarantee empty shards.
	const learners, steps = 6, 4
	run := func(shard bool) *elastic.Result {
		return smallJob(t, core.Config{
			Compression:    compress.Config{Codec: "none", BucketFloats: 64},
			ShardOptimizer: shard,
		}, learners, 1, steps)
	}
	requireSameWeights(t, run(false), run(true), "replicated vs sharded with empty shards")
}
