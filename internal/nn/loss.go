package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy is the classification criterion: softmax over logits
// followed by negative log-likelihood, averaged over the batch. In Torch this
// is the LogSoftMax+ClassNLLCriterion pair whose evaluation the paper's
// optimized Data-Parallel Table moves onto every GPU (Section 4.3).
type SoftmaxCrossEntropy struct {
	probs, grad *tensor.Tensor // reused while the batch shape repeats
	labels      []int
}

// NewSoftmaxCrossEntropy constructs the criterion.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Forward computes the mean cross-entropy loss of logits (N, K) against
// labels (len N, values in [0,K)).
func (s *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) (float64, error) {
	if logits.NumDims() != 2 {
		return 0, fmt.Errorf("nn: criterion wants 2-D logits, got %v", logits.Shape())
	}
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		return 0, fmt.Errorf("nn: criterion got %d labels for batch %d", len(labels), n)
	}
	s.probs = tensor.Reuse(s.probs, n, k)
	s.labels = append(s.labels[:0], labels...)
	var loss float64
	for i := 0; i < n; i++ {
		if labels[i] < 0 || labels[i] >= k {
			return 0, fmt.Errorf("nn: label %d out of range [0,%d)", labels[i], k)
		}
		row := logits.Data[i*k : (i+1)*k]
		prow := s.probs.Data[i*k : (i+1)*k]
		// Numerically stable softmax: subtract the row max.
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - m))
			prow[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range prow {
			prow[j] *= inv
		}
		p := float64(prow[labels[i]])
		if p < 1e-30 {
			p = 1e-30
		}
		loss -= math.Log(p)
	}
	return loss / float64(n), nil
}

// Backward returns dLoss/dLogits for the last Forward: (softmax - onehot)/N.
// The tensor is the criterion's own, valid until the next Backward.
func (s *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	if s.probs == nil {
		panic("nn: criterion Backward before Forward")
	}
	n, k := s.probs.Dim(0), s.probs.Dim(1)
	s.grad = tensor.Reuse(s.grad, n, k)
	grad := s.grad
	copy(grad.Data, s.probs.Data)
	invN := float32(1) / float32(n)
	for i := 0; i < n; i++ {
		grad.Data[i*k+s.labels[i]] -= 1
	}
	grad.Scale(invN)
	return grad
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label (top-1 accuracy, the metric in Figures 13-14).
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Dim(0), logits.Dim(1)
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		if bi == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
