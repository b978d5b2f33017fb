package core

import (
	"fmt"

	"repro/internal/checkpoint"
)

// CaptureCheckpoint snapshots the learner's training state — model weights,
// optimizer momentum, and the step counter — as a rank-count-independent
// checkpoint: the same bytes whether the run was replicated or sharded, at
// any world size. Where a rank holds only part of the momentum — its shard
// under ShardOptimizer, the chunk it roots on the raw multi-colour route,
// nothing at all if it roots none — the parts are allgathered (collective:
// every rank must call it, and every rank returns an identical snapshot);
// in replicated mode the call is purely local, since device 0's replica and
// momentum already equal every other replica bit for bit.
//
// This is the save half of elastic recovery: a snapshot captured at world W
// restores at any world W′ (RestoreCheckpoint), because the shard layout is
// re-derived from the new world and each rank carves its own slice.
func (l *Learner) CaptureCheckpoint(epoch float64) (*checkpoint.Checkpoint, error) {
	return checkpoint.CaptureSharded(l.comm, l.engine.Params(0), l.opts[0], int64(l.step), epoch)
}

// RestoreCheckpoint loads a snapshot into the learner: every device replica
// gets the checkpoint's weights, the optimizer its momentum — one full
// replica per device in replicated mode, this rank's StateBounds slice when
// it holds part — and the learner's step counter resumes from the
// checkpoint's (so the LR schedule continues where the snapshot left off).
// Purely local: the checkpoint is full-state, so no communication is needed
// regardless of how many ranks are restoring.
func (l *Learner) RestoreCheckpoint(ck *checkpoint.Checkpoint) error {
	for d, o := range l.opts {
		if err := ck.Restore(l.engine.Params(d), o); err != nil {
			return fmt.Errorf("core: restoring checkpoint into device %d: %w", d, err)
		}
	}
	// Device 0 now holds the restored weights; refresh every replica (the
	// devices without an optimizer of their own, when sharded).
	flat, err := l.FlatWeights()
	if err != nil {
		return err
	}
	if err := l.engine.SetValues(flat); err != nil {
		return err
	}
	l.step = int(ck.Step)
	return nil
}
