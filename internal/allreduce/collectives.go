package allreduce

import (
	"fmt"

	"repro/internal/mpi"
)

// This file is the composable collectives layer: reduce-scatter and allgather
// over an explicit shard layout, in ring (rsRing, agRing) and recursive
// halving / doubling (rsHalving, agDoubling) forms. Every ring-style
// allreduce *is* a reduce-scatter followed by an allgather — bucketRing and
// rabenseifner are literally those compositions — and the allgather half is
// public (AllGather): it is how a ZeRO-1-style sharded step, where each rank
// applies only its shard's update, gets the updated parameters back to every
// rank. (The reduce-scatter the sharded step uses is the bucketed, compressed
// one: BucketedReduceScatter.)
//
// Shard layout: a bounds slice of length Size+1 with bounds[0] == 0,
// bounds[Size] == len(data), nondecreasing; rank r owns the contiguous
// element range [bounds[r], bounds[r+1]). Empty shards are legal (more ranks
// than elements, or param-aligned layouts that starve a rank).
//
// Buffer discipline follows the PR 3 ownership rules: receives reduce
// straight from the transport buffer (RecvFloatsAdd) or decode into place,
// releasing it either way; sends go through SendFloats' pooled encode;
// nothing on the steady-state path allocates.

// Variant selects AllGather's communication pattern.
type Variant string

// VarRing is the bandwidth-optimal ring: n-1 steps, each rank moving one
// shard-sized block per step. Works for any rank count.
const VarRing Variant = "ring"

// Collective tag bases inside the package's reserved band (see allreduce.go).
// Ring variants use base+step, halving/doubling use base+round.
const (
	tagRScoll = tagBase + 2048
	tagAGcoll = tagBase + 2560
)

// UniformBounds returns the canonical even shard layout: bounds[i] is
// ChunkBounds' i-th cut of length over ranks chunks.
func UniformBounds(length, ranks int) []int {
	b := make([]int, ranks+1)
	for i := 0; i < ranks; i++ {
		b[i], b[i+1] = ChunkBounds(length, ranks, i)
	}
	return b
}

// checkBounds validates a shard layout against the communicator and vector.
func checkBounds(c *mpi.Comm, bounds []int, length int) error {
	if len(bounds) != c.Size()+1 {
		return fmt.Errorf("allreduce: %d bounds for %d ranks (want size+1)", len(bounds), c.Size())
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != length {
		return fmt.Errorf("allreduce: bounds [%d..%d] do not cover vector of %d", bounds[0], bounds[len(bounds)-1], length)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return fmt.Errorf("allreduce: bounds decrease at %d: %v", i, bounds[i])
		}
	}
	return nil
}

// AllGather distributes each rank's shard [bounds[r], bounds[r+1]) of data to
// every rank: on return the whole vector is identical everywhere, assembled
// from bitwise copies of each owner's shard. bounds nil means UniformBounds.
func AllGather(c *mpi.Comm, data []float32, bounds []int, v Variant) error {
	n := c.Size()
	if bounds == nil {
		bounds = UniformBounds(len(data), n)
	}
	if err := checkBounds(c, bounds, len(data)); err != nil {
		return err
	}
	if n == 1 {
		return nil
	}
	if v != VarRing && v != "" {
		return fmt.Errorf("allreduce: unknown allgather variant %q", v)
	}
	return agRing(c, data, bounds)
}

// rsRingStep and agRingStep are the ring collectives' step geometry — which
// shard index a rank sends and receives at step s (mod n). They are shared
// by the live loops below and the schedule extraction (schedule.go), so the
// discrete-event simulator replays exactly the steps the wire carries and
// cannot drift from the implementation silently.
func rsRingStep(rank, s int) (send, recv int) { return rank - 1 - s, rank - 2 - s }
func agRingStep(rank, s int) (send, recv int) { return rank - s, rank - s - 1 }

// rsRing is the ring reduce-scatter: at step s, rank sends shard
// (rank-1-s) mod n to its right neighbour and accumulates shard
// (rank-2-s) mod n from its left one; after n-1 steps rank owns the full sum
// of shard rank. Shard r's sum is accumulated starting from rank r+1 around
// the ring, so summation order differs per shard (and from rank order).
func rsRing(c *mpi.Comm, data []float32, bounds []int) error {
	n := c.Size()
	rank := c.Rank()
	right := (rank + 1) % n
	left := (rank - 1 + n) % n
	shard := func(i int) []float32 {
		i = ((i % n) + n) % n
		return data[bounds[i]:bounds[i+1]]
	}
	for s := 0; s < n-1; s++ {
		sendShard, recvShard := rsRingStep(rank, s)
		if err := c.SendFloats(right, tagRScoll+s, shard(sendShard)); err != nil {
			return err
		}
		if err := c.RecvFloatsAdd(shard(recvShard), left, tagRScoll+s); err != nil {
			return fmt.Errorf("allreduce: ring reduce-scatter step %d: %w", s, err)
		}
	}
	return nil
}

// agRing is the ring allgather: at step s, rank forwards shard (rank-s) mod n
// to its right neighbour and receives shard (rank-s-1) mod n from its left
// one, so every shard circulates the whole ring in n-1 steps.
func agRing(c *mpi.Comm, data []float32, bounds []int) error {
	n := c.Size()
	rank := c.Rank()
	right := (rank + 1) % n
	left := (rank - 1 + n) % n
	shard := func(i int) []float32 {
		i = ((i % n) + n) % n
		return data[bounds[i]:bounds[i+1]]
	}
	for s := 0; s < n-1; s++ {
		sendShard, recvShard := agRingStep(rank, s)
		if err := c.SendFloats(right, tagAGcoll+s, shard(sendShard)); err != nil {
			return err
		}
		if err := c.RecvFloatsInto(shard(recvShard), left, tagAGcoll+s); err != nil {
			return fmt.Errorf("allreduce: ring allgather step %d: %w", s, err)
		}
	}
	return nil
}

// halvingStep is one recursive-halving round from a rank's view: exchange
// with partner — ship [sendLo,sendHi), accumulate the partner's copy of
// [keepLo,keepHi) — then recurse into the kept half-group [glo,ghi). Shared
// by the live loop and the schedule extraction (schedule.go).
type halvingStep struct {
	partner        int
	sendLo, sendHi int
	keepLo, keepHi int
	glo, ghi       int // the rank group after this round
}

// halvingRound computes the round geometry for a rank inside the current
// group [glo,ghi) exchanging at distance half.
func halvingRound(rank, glo, ghi, half int, bounds []int) halvingStep {
	mid := glo + (ghi-glo)/2
	st := halvingStep{partner: rank ^ half}
	if rank&half == 0 {
		st.keepLo, st.keepHi = bounds[glo], bounds[mid]
		st.sendLo, st.sendHi = bounds[mid], bounds[ghi]
		st.glo, st.ghi = glo, mid
	} else {
		st.keepLo, st.keepHi = bounds[mid], bounds[ghi]
		st.sendLo, st.sendHi = bounds[glo], bounds[mid]
		st.glo, st.ghi = mid, ghi
	}
	return st
}

// rsHalving is Rabenseifner's recursive-halving reduce-scatter over a
// power-of-two group: each round exchanges the half of the current rank
// group's data interval the rank is NOT responsible for with a partner at
// decreasing distance, halving the interval until only the rank's own shard
// remains. len(bounds)-1 ranks participate; group splits land on shard
// boundaries, so arbitrary (including empty) shards are supported.
func rsHalving(c *mpi.Comm, data []float32, bounds []int) error {
	p2 := len(bounds) - 1
	rank := c.Rank()
	if rank >= p2 {
		return fmt.Errorf("allreduce: rank %d outside halving group of %d", rank, p2)
	}
	glo, ghi := 0, p2
	round := 0
	for half := p2 / 2; half >= 1; half /= 2 {
		st := halvingRound(rank, glo, ghi, half, bounds)
		glo, ghi = st.glo, st.ghi
		if err := c.SendFloats(st.partner, tagRabRS+round, data[st.sendLo:st.sendHi]); err != nil {
			return err
		}
		if err := c.RecvFloatsAdd(data[st.keepLo:st.keepHi], st.partner, tagRabRS+round); err != nil {
			return fmt.Errorf("allreduce: recursive halving round %d: %w", round, err)
		}
		round++
	}
	return nil
}

// agDoubling is the recursive-doubling allgather over a power-of-two group:
// in round k each rank holds the merged shards of its aligned 2^k-rank block
// and swaps blocks with a partner at distance 2^k, doubling coverage per
// round. Block intervals are derived from bounds on both sides, so no
// interval headers ride on the wire and every element lands as a bitwise
// copy of its owner's shard.
func agDoubling(c *mpi.Comm, data []float32, bounds []int) error {
	p2 := len(bounds) - 1
	rank := c.Rank()
	if rank >= p2 {
		return fmt.Errorf("allreduce: rank %d outside doubling group of %d", rank, p2)
	}
	round := 0
	for half := 1; half < p2; half <<= 1 {
		st := doublingRound(rank, half, bounds)
		if err := c.SendFloats(st.partner, tagRabAG+round, data[st.sendLo:st.sendHi]); err != nil {
			return err
		}
		if err := c.RecvFloatsInto(data[st.recvLo:st.recvHi], st.partner, tagRabAG+round); err != nil {
			return fmt.Errorf("allreduce: recursive doubling round %d: %w", round, err)
		}
		round++
	}
	return nil
}

// doublingStep is one recursive-doubling round from a rank's view: swap the
// merged block [sendLo,sendHi) for the partner's [recvLo,recvHi). Shared by
// the live loop and the schedule extraction (schedule.go).
type doublingStep struct {
	partner        int
	sendLo, sendHi int
	recvLo, recvHi int
}

// doublingRound computes the round geometry for a rank exchanging at
// distance half.
func doublingRound(rank, half int, bounds []int) doublingStep {
	partner := rank ^ half
	myBlk := rank &^ (half - 1)
	pBlk := partner &^ (half - 1)
	return doublingStep{
		partner: partner,
		sendLo:  bounds[myBlk], sendHi: bounds[myBlk+half],
		recvLo: bounds[pBlk], recvHi: bounds[pBlk+half],
	}
}
