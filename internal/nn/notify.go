package nn

import "repro/internal/tensor"

// ParamHook receives a parameter whose gradient accumulator just became
// final during a hooked backward pass: no later backward work of the same
// pass will touch p.Grad again, so the value may be read (or shipped into a
// communication pipeline) immediately.
type ParamHook func(p *Param)

// GradNotifier is a container layer whose backward pass can report per-
// parameter gradient readiness. Containers implement it by recursing through
// their children with BackwardNotify, so readiness notification reaches every
// Param in the subtree — including branching modules (residual shortcuts,
// inception paths) whose children do not finish in plain reverse order.
//
// This is the mechanism behind the reactive gradient pipeline: intra-node
// reduction and the inter-node allreduce of a parameter start while earlier
// layers are still computing backward.
type GradNotifier interface {
	Layer
	// BackwardWithGradHook is Backward plus readiness notification. It must
	// perform exactly the same arithmetic as Backward (the reactive and
	// phased training paths are asserted bitwise identical) and invoke hook
	// once per owned parameter, after that parameter's gradient is final.
	BackwardWithGradHook(gradOut *tensor.Tensor, hook ParamHook) *tensor.Tensor
}

// BackwardNotify runs l's backward pass, invoking hook as parameter
// gradients become final. Containers implementing GradNotifier propagate the
// hook to their children; for leaf layers (and any container that does not
// implement the interface) the whole layer's parameters are final when its
// Backward returns, so they are notified then, from the slice the layer
// keeps for Params (Conv2D, Linear and BatchNorm2D build theirs once): a
// notified backward allocates nothing a plain one does not. A nil hook
// degrades to plain Backward.
func BackwardNotify(l Layer, gradOut *tensor.Tensor, hook ParamHook) *tensor.Tensor {
	if n, ok := l.(GradNotifier); ok {
		return n.BackwardWithGradHook(gradOut, hook)
	}
	gradIn := l.Backward(gradOut)
	if hook != nil {
		for _, p := range l.Params() {
			hook(p)
		}
	}
	return gradIn
}
