package allreduce

import (
	"fmt"

	"repro/internal/mpi"
)

// Algorithm names an allreduce implementation.
type Algorithm string

// The implemented algorithms: the paper's three — its multi-colour tree, its
// pipelined ring baseline, and AlgDefault, which mirrors what it calls
// "default OpenMPI" (recursive doubling for small payloads, Rabenseifner's
// reduce-scatter + allgather for large ones) — plus the two the rest of the
// tree composes or extracts: AlgRabenseifner on its own (the simulator's and
// the benchmark's large-payload row) and AlgBucketRing, the ring
// reduce-scatter + allgather the sharded step is built from.
const (
	AlgRing         Algorithm = "ring"
	AlgBucketRing   Algorithm = "bucketring"
	AlgRabenseifner Algorithm = "rabenseifner"
	AlgDefault      Algorithm = "default"
	AlgMultiColor   Algorithm = "multicolor"
)

// Algorithms lists every implemented algorithm, for sweeps and CLIs.
func Algorithms() []Algorithm {
	return []Algorithm{AlgRing, AlgBucketRing, AlgRabenseifner, AlgDefault, AlgMultiColor}
}

// Options tunes the algorithms.
type Options struct {
	// Colors is the k of the multi-color algorithm (tree arity equals the
	// color count, per the paper). Default 4, the paper's configuration.
	Colors int
	// SegmentFloats is the pipeline segment size in elements for the ring
	// and multi-color algorithms. Default 16384 (64 KiB segments).
	SegmentFloats int
	// DefaultCrossover is the payload (elements) above which AlgDefault
	// switches from recursive doubling to Rabenseifner. Default 4096.
	DefaultCrossover int
}

func (o Options) withDefaults() Options {
	if o.Colors <= 0 {
		o.Colors = 4
	}
	if o.SegmentFloats <= 0 {
		o.SegmentFloats = 16384
	}
	if o.DefaultCrossover <= 0 {
		o.DefaultCrossover = 4096
	}
	return o
}

// Tag bases inside the user tag space, reserved by convention for this
// package (applications should stay below tagBase).
const (
	tagBase       = mpi.MaxUserTag - 4096
	tagRingReduce = tagBase + 0
	tagRingBcast  = tagBase + 1
	tagRD         = tagBase + 3
	tagRabFold    = tagBase + 4
	tagRabRS      = tagBase + 5
	tagRabAG      = tagBase + 6
	tagRabBack    = tagBase + 7
	// Multi-color uses tagMC + 2*color and tagMC + 2*color + 1.
	tagMC = tagBase + 16
)

// AllReduce sums data elementwise across every rank of c, leaving the global
// sum in data on all ranks.
func AllReduce(c *mpi.Comm, data []float32, alg Algorithm, opts Options) error {
	if c.Size() == 1 {
		return nil
	}
	opts = opts.withDefaults()
	switch alg {
	case AlgRing:
		return pipelinedRing(c, data, opts)
	case AlgBucketRing:
		return bucketRing(c, data)
	case AlgRabenseifner:
		return rabenseifner(c, data)
	case AlgDefault:
		if len(data) <= opts.DefaultCrossover {
			return recursiveDoubling(c, data)
		}
		return rabenseifner(c, data)
	case AlgMultiColor:
		return multiColor(c, data, nil, opts, nil)
	default:
		return fmt.Errorf("allreduce: unknown algorithm %q", alg)
	}
}

// pipelinedRing is the paper's ring baseline: segments are reduced along the
// ring toward rank 0 (each rank adds its contribution), then the result is
// broadcast from rank 0 around the ring in the opposite direction. Segments
// pipeline: a rank forwards segment s while its neighbour still processes
// s-1.
func pipelinedRing(c *mpi.Comm, data []float32, opts Options) error {
	n := c.Size()
	rank := c.Rank()
	seg := opts.SegmentFloats
	nseg := numSegs(len(data), seg)

	// Reduction phase: data flows rank n-1 -> n-2 -> ... -> 0.
	for s := 0; s < nseg; s++ {
		lo, hi := segSpan(s, seg, len(data))
		if rank < n-1 {
			if err := c.RecvFloatsAdd(data[lo:hi], rank+1, tagRingReduce); err != nil {
				return fmt.Errorf("allreduce: ring segment: %w", err)
			}
		}
		if rank > 0 {
			if err := c.SendFloats(rank-1, tagRingReduce, data[lo:hi]); err != nil {
				return err
			}
		}
	}
	// Broadcast phase: result flows rank 0 -> 1 -> ... -> n-1.
	for s := 0; s < nseg; s++ {
		lo, hi := segSpan(s, seg, len(data))
		if rank > 0 {
			if err := c.RecvFloatsInto(data[lo:hi], rank-1, tagRingBcast); err != nil {
				return err
			}
		}
		if rank < n-1 {
			if err := c.SendFloats(rank+1, tagRingBcast, data[lo:hi]); err != nil {
				return err
			}
		}
	}
	return nil
}

// bucketRing is the classic bandwidth-optimal ring allreduce, written as
// what it is: a ring reduce-scatter (after which rank r owns the global sum
// of shard r) composed with a ring allgather that circulates the completed
// shards. The two halves are the package's first-class primitives
// (collectives.go); callers that want to stop at the reduce-scatter boundary
// call them directly.
func bucketRing(c *mpi.Comm, data []float32) error {
	bounds := UniformBounds(len(data), c.Size())
	if err := rsRing(c, data, bounds); err != nil {
		return err
	}
	return agRing(c, data, bounds)
}

// recursiveDoubling exchanges and adds full vectors over log2(p) rounds.
// Non-power-of-two rank counts fold the extras into the power-of-two core
// first and fan the result back out at the end.
func recursiveDoubling(c *mpi.Comm, data []float32) error {
	n := c.Size()
	rank := c.Rank()
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	extra := n - p2

	// Fold: ranks >= p2 send to rank-p2 and wait for the result.
	if rank >= p2 {
		if err := c.SendFloats(rank-p2, tagRD, data); err != nil {
			return err
		}
		return c.RecvFloatsInto(data, rank-p2, tagRD)
	}
	if rank < extra {
		if err := c.RecvFloatsAdd(data, rank+p2, tagRD); err != nil {
			return err
		}
	}
	// Pairwise exchange-and-add over the power-of-two core.
	for d := 1; d < p2; d <<= 1 {
		partner := rank ^ d
		if err := c.SendFloats(partner, tagRD+d, data); err != nil {
			return err
		}
		if err := c.RecvFloatsAdd(data, partner, tagRD+d); err != nil {
			return err
		}
	}
	// Unfold.
	if rank < extra {
		return c.SendFloats(rank+p2, tagRD, data)
	}
	return nil
}
