package mpi

import (
	"fmt"
)

// Barrier blocks until every rank in the communicator has entered it.
// Dissemination algorithm: ⌈log2 n⌉ rounds of shifted token exchange.
func (c *Comm) Barrier() error {
	n := c.Size()
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		dst := (c.rank + dist) % n
		src := (c.rank - dist + n) % n
		if err := c.Send(dst, tagBarrier+round, nil); err != nil {
			return err
		}
		if _, err := c.Recv(src, tagBarrier+round); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's buffer to every rank: on the root, data is sent;
// on other ranks, the returned slice holds the received payload (the data
// argument is ignored there and may be nil). Binomial-tree algorithm.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	n := c.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	// Rotate ranks so the root is virtual rank 0.
	vrank := (c.rank - root + n) % n
	if vrank != 0 {
		// Receive from parent: clear the lowest set bit.
		parent := (vrank&(vrank-1) + root) % n
		got, err := c.Recv(parent, tagBcast)
		if err != nil {
			return nil, err
		}
		data = got
	}
	// Forward to children: vrank v parents every v|bit with bit strictly
	// below v's lowest set bit (all bits, for the root).
	for bit := 1; bit < n; bit <<= 1 {
		if vrank&(bit-1) != 0 || vrank&bit != 0 {
			continue
		}
		child := vrank | bit
		if child >= n {
			break
		}
		if err := c.Send((child+root)%n, tagBcast, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// AllGather collects every rank's payload on every rank (ring algorithm:
// n-1 steps, each forwarding the newest block to the right neighbour).
func (c *Comm) AllGather(data []byte) ([][]byte, error) {
	n := c.Size()
	out := make([][]byte, n)
	cp := make([]byte, len(data))
	copy(cp, data)
	out[c.rank] = cp
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	cur := c.rank
	for step := 0; step < n-1; step++ {
		if err := c.Send(right, tagAllGather+step, out[cur]); err != nil {
			return nil, err
		}
		b, err := c.Recv(left, tagAllGather+step)
		if err != nil {
			return nil, err
		}
		cur = (cur - 1 + n) % n
		out[cur] = b
	}
	return out, nil
}

// AllToAllV performs a personalized all-to-all exchange: send[i] goes to
// rank i; the result's entry j is the payload received from rank j. Payload
// sizes may differ per pair (the "V" in MPI_Alltoallv). This is the
// collective behind the DIMD shuffle (Algorithm 2 in the paper).
//
// The implementation is the shifted linear exchange: in step s, rank r sends
// to (r+s) mod n and receives from (r-s) mod n, so every step is a perfect
// matching and no rank is hot.
func (c *Comm) AllToAllV(send [][]byte) ([][]byte, error) {
	n := c.Size()
	if len(send) != n {
		return nil, fmt.Errorf("mpi: AllToAllV wants %d send buffers, got %d", n, len(send))
	}
	out := make([][]byte, n)
	self := make([]byte, len(send[c.rank]))
	copy(self, send[c.rank])
	out[c.rank] = self
	// Sends can all be enqueued up front (buffered transport); receives then
	// drain in shift order.
	for s := 1; s < n; s++ {
		dst, _, tag := AllToAllStep(c.rank, s, n)
		if err := c.Send(dst, tag, send[dst]); err != nil {
			return nil, err
		}
	}
	for s := 1; s < n; s++ {
		_, src, tag := AllToAllStep(c.rank, s, n)
		b, err := c.Recv(src, tag)
		if err != nil {
			return nil, err
		}
		out[src] = b
	}
	return out, nil
}

// AllToAllStep is AllToAllV's shift geometry: in step s (1..n-1) rank sends
// to dst and receives from src, both under tag. Shared by the loop above and
// its schedule extraction (allreduce.AllToAllVSchedule), so the simulated
// shuffle replays the steps the wire carries.
func AllToAllStep(rank, s, n int) (dst, src, tag int) {
	return (rank + s) % n, (rank - s + n) % n, tagAllToAll + s
}
