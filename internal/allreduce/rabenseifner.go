package allreduce

import (
	"repro/internal/mpi"
)

// rabenseifner implements the reduce-scatter (recursive halving) +
// allgather (recursive doubling) allreduce of Rabenseifner, the algorithm
// OpenMPI selects for large payloads — the paper's "default OpenMPI"
// comparison point. Total traffic per rank is ~2·len(data) elements versus
// the log2(p)·len(data) of recursive doubling.
//
// The body is a composition of the package's first-class primitives: fold
// the non-power-of-two extras into the core, rsHalving over the core's
// uniform shard layout, agDoubling back out, and fan the result to the
// extras.
func rabenseifner(c *mpi.Comm, data []float32) error {
	n := c.Size()
	rank := c.Rank()
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	extra := n - p2

	// Fold extras into the power-of-two core.
	if rank >= p2 {
		if err := c.SendFloats(rank-p2, tagRabFold, data); err != nil {
			return err
		}
		return c.RecvFloatsInto(data, rank-p2, tagRabBack)
	}
	if rank < extra {
		if err := c.RecvFloatsAdd(data, rank+p2, tagRabFold); err != nil {
			return err
		}
	}

	bounds := UniformBounds(len(data), p2)
	if err := rsHalving(c, data, bounds); err != nil {
		return err
	}
	if err := agDoubling(c, data, bounds); err != nil {
		return err
	}

	// Fan the result back out to the folded extras.
	if rank < extra {
		return c.SendFloats(rank+p2, tagRabBack, data)
	}
	return nil
}
