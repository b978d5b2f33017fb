package core

import (
	"fmt"

	"repro/internal/allreduce"
	"repro/internal/dpt"
)

// This file holds what ZeRO-1-style sharded data parallelism
// (Config.ShardOptimizer) adds to Learner.Step: the shard layout and the
// parameter-allgather tail. The replicated step holds a full optimizer-state
// replica and applies the full update on every rank; sharded, the same step
// stops its exchange at the reduce-scatter boundary:
//
//	intra-node sum → reduce-scatter (each gradient bucket's compressed
//	payload travels only to its shard owners) → this rank updates ONLY its
//	contiguous parameter shard, with only that shard's momentum → allgather
//	of the updated parameters → every device's replica refreshed
//
// Shards are whole parameters (balanced by element count), so per-parameter
// rules — NoWeightDecay flags, any per-layer norm — stay rank-local. A bucket's
// reduced sum is accumulated in rank order from the same decoded payloads
// the replicated path sums, the shard update runs the same arithmetic on the
// same values, and the allgather moves bitwise copies — which is why the
// final parameters are bitwise identical to the replicated path under the
// same Compression config (a test asserts it across codecs, in both phased
// and overlap modes).

// paramShardBounds partitions the engine's parameters into ranks contiguous
// shards of whole parameters, balanced by element count: b[r] is the
// flattened element offset of rank r's shard (length ranks+1). Ranks beyond
// the parameter supply own empty shards.
func paramShardBounds(engine *dpt.Engine, ranks int) []int {
	np := engine.NumParams()
	total := engine.GradSize()
	b := make([]int, ranks+1)
	p, off := 0, 0
	for r := 1; r <= ranks; r++ {
		target := r * total / ranks
		for p < np && off < target {
			_, off = engine.ParamRange(p)
			p++
		}
		b[r] = off
	}
	return b
}

// allGatherParams allgathers every rank's updated shard (ring, bitwise
// copies) in place in device 0's weight arena — the shard optimizer updated
// this rank's shard right there — and refreshes the other devices' replicas
// from it. The allgather's wire bytes are accounted in paramAGBytes — it is
// real traffic the sharded step pays that the replicated step does not, and
// the shard report must not hide it.
//
// It is the tail of every step: replicated (no shard layout), every rank
// has already updated every device, and there is nothing to gather.
func (l *Learner) allGatherParams() error {
	if l.elemBounds == nil {
		return nil
	}
	values := l.engine.Values(0)
	if err := allreduce.AllGather(l.comm, values, l.elemBounds, allreduce.VarRing); err != nil {
		return fmt.Errorf("core: parameter allgather: %w", err)
	}
	// Ring allgather schedule: over n-1 steps the rank forwards every shard
	// except shard (rank+1) mod n and receives every shard except its own.
	if n := l.comm.Size(); n > 1 {
		total := int64(len(values))
		rank := l.comm.Rank()
		next := (rank + 1) % n
		sent := total - int64(l.elemBounds[next+1]-l.elemBounds[next])
		recv := total - int64(l.elemBounds[rank+1]-l.elemBounds[rank])
		l.paramAGBytes += 4 * (sent + recv)
	}
	return l.engine.SetValues(values)
}

// ParamAllGatherBytes returns the cumulative wire bytes (send+recv) of the
// sharded step's parameter allgather — zero when sharding is off.
func (l *Learner) ParamAllGatherBytes() int64 { return l.paramAGBytes }

// Sharded reports whether the learner runs the sharded-optimizer path.
func (l *Learner) Sharded() bool { return l.cfg.ShardOptimizer }

// ShardBounds returns the param-aligned element shard layout (length
// Size+1), or nil when sharding is off.
func (l *Learner) ShardBounds() []int { return l.elemBounds }

// OptimizerStateBytes returns the bytes of optimizer (momentum) state this
// learner holds: one shard in sharded mode, one full replica per device
// otherwise — the quantity ZeRO-1 sharding shrinks by ~world-size.
func (l *Learner) OptimizerStateBytes() int64 {
	var n int64
	for _, o := range l.opts {
		n += int64(o.StateLen())
	}
	return 4 * n
}
