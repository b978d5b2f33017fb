package core

import (
	"fmt"

	"repro/internal/dimd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// EvaluateDistributed computes top-1 accuracy and mean loss of the current
// model over a validation set, splitting the work across the communicator:
// each learner scores its contiguous shard on its own devices and the
// counts are combined with a small allreduce — how the paper's runs score
// the 50 k ImageNet validation images between epochs.
func (l *Learner) EvaluateDistributed(x *tensor.Tensor, labels []int) (acc float64, loss float64, err error) {
	n := x.Dim(0)
	if len(labels) != n {
		return 0, 0, fmt.Errorf("core: %d labels for %d validation images", len(labels), n)
	}
	lo, hi := dimd.PartitionBounds(n, l.comm.Rank(), l.comm.Size())
	stats := make([]float32, 3) // correct, count, loss·count
	if hi > lo {
		shard := x.MustSliceRows(lo, hi)
		shardLabels := labels[lo:hi]
		logits, err := l.engine.Predict(shard)
		if err != nil {
			return 0, 0, err
		}
		crit := nn.NewSoftmaxCrossEntropy()
		shardLoss, err := crit.Forward(logits, shardLabels)
		if err != nil {
			return 0, 0, err
		}
		stats[0] = float32(nn.Accuracy(logits, shardLabels) * float64(hi-lo))
		stats[1] = float32(hi - lo)
		stats[2] = float32(shardLoss * float64(hi-lo))
	}
	if err := l.comm.AllReduceFloats(stats); err != nil {
		return 0, 0, fmt.Errorf("core: aggregating eval stats: %w", err)
	}
	if stats[1] == 0 {
		return 0, 0, fmt.Errorf("core: empty validation set")
	}
	return float64(stats[0] / stats[1]), float64(stats[2] / stats[1]), nil
}
