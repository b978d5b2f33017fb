package mpi

import "fmt"

// Reserved tags for scatter/scan (continuing collectives.go's bands).
const (
	tagScatter = tagSubComm + 1<<20
	tagScan    = tagScatter + 1<<20
)

// Scatter distributes send[i] from the root to rank i; the return value is
// this rank's payload. On non-root ranks send is ignored. Linear algorithm
// (payloads may differ per rank, as in MPI_Scatterv).
func (c *Comm) Scatter(root int, send [][]byte) ([]byte, error) {
	n := c.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mpi: scatter root %d out of range", root)
	}
	if c.rank == root {
		if len(send) != n {
			return nil, fmt.Errorf("mpi: scatter wants %d buffers, got %d", n, len(send))
		}
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			if err := c.Send(r, tagScatter, send[r]); err != nil {
				return nil, err
			}
		}
		own := make([]byte, len(send[root]))
		copy(own, send[root])
		return own, nil
	}
	return c.Recv(root, tagScatter)
}

// ScanFloats computes an inclusive prefix sum across ranks: rank r ends
// with the elementwise sum of ranks 0..r's vectors. Linear chain algorithm.
func (c *Comm) ScanFloats(data []float32) error {
	n := c.Size()
	if c.rank > 0 {
		if err := c.RecvFloatsAdd(data, c.rank-1, tagScan); err != nil {
			return fmt.Errorf("mpi: scan: %w", err)
		}
	}
	if c.rank < n-1 {
		return c.SendFloats(c.rank+1, tagScan, data)
	}
	return nil
}
