package allreduce

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// randomBounds draws a random shard layout over length for n ranks:
// nondecreasing cuts covering the whole vector, with duplicate cuts (empty
// shards) arising naturally. Roughly a quarter of draws return nil (the
// uniform layout path).
func randomBounds(rng *rand.Rand, length, n int) []int {
	if rng.Intn(4) == 0 {
		return nil
	}
	b := make([]int, n+1)
	b[n] = length
	for i := 1; i < n; i++ {
		b[i] = rng.Intn(length + 1)
	}
	sort.Ints(b)
	return b
}

// ownerOf returns the rank owning element i under bounds (the first rank
// whose nonempty shard contains it).
func ownerOf(bounds []int, i int) int {
	for r := 0; r+1 < len(bounds); r++ {
		if bounds[r] <= i && i < bounds[r+1] {
			return r
		}
	}
	return -1
}

// TestReduceScatterAllGatherRandomized is the collectives' property test:
// over randomized world sizes, vector lengths (including empty), shard
// layouts (including empty shards), and both forms, (1) reduce-scatter
// leaves each rank's shard equal to the serial elementwise reference sum,
// (2) allgather reassembles every element as a BITWISE copy of its owner's
// value, and (3) their composition completes an allreduce that is bitwise
// identical across ranks. Halving draws cover power-of-two worlds
// (native recursive halving/doubling) and others (ring fallback) alike.
func TestReduceScatterAllGatherRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for iter := 0; iter < 80; iter++ {
		n := 1 + rng.Intn(8)
		length := rng.Intn(257)
		bounds := randomBounds(rng, length, n)
		variant := VarRing
		if rng.Intn(2) == 0 {
			variant = varHalving
		}
		label := fmt.Sprintf("iter=%d n=%d len=%d variant=%s bounds=%v", iter, n, length, variant, bounds)

		want := sumVec(length, n)
		effective := bounds
		if effective == nil {
			effective = UniformBounds(length, n)
		}
		w := mpi.NewWorld(n)
		composed := make([][]float32, n)
		var mu sync.Mutex
		err := w.Run(func(c *mpi.Comm) error {
			rank := c.Rank()
			// (1) Reduce-scatter: the shard carries the reference sum.
			data := rankVec(length, rank)
			if err := reduceScatter(c, data, bounds, variant); err != nil {
				return err
			}
			for i := effective[rank]; i < effective[rank+1]; i++ {
				if diff := math.Abs(float64(data[i] - want[i])); diff > 1e-3*math.Max(1, math.Abs(float64(want[i]))) {
					return fmt.Errorf("rank %d: reduce-scatter elem %d = %v, want %v", rank, i, data[i], want[i])
				}
			}
			// (2) Allgather alone: every element must be a bitwise copy of
			// its owner's stamped value.
			stamped := make([]float32, length)
			own := rankVec(length, rank)
			copy(stamped[effective[rank]:effective[rank+1]], own[effective[rank]:effective[rank+1]])
			if err := allGather(c, stamped, bounds, variant); err != nil {
				return err
			}
			for i := range stamped {
				owner := ownerOf(effective, i)
				if exp := rankVec(length, owner)[i]; stamped[i] != exp {
					return fmt.Errorf("rank %d: allgather elem %d = %v, want owner %d's %v", rank, i, stamped[i], owner, exp)
				}
			}
			// (3) Composition: RS ∘ AG completes the allreduce.
			if err := allGather(c, data, bounds, variant); err != nil {
				return err
			}
			for i := range data {
				if diff := math.Abs(float64(data[i] - want[i])); diff > 1e-3*math.Max(1, math.Abs(float64(want[i]))) {
					return fmt.Errorf("rank %d: composed elem %d = %v, want %v", rank, i, data[i], want[i])
				}
			}
			mu.Lock()
			composed[rank] = data
			mu.Unlock()
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		// Replica consistency is exact: the composed vectors agree bitwise.
		for r := 1; r < n; r++ {
			for i := range composed[0] {
				if composed[r][i] != composed[0][i] {
					t.Fatalf("%s: rank %d elem %d = %v, rank 0 has %v", label, r, i, composed[r][i], composed[0][i])
				}
			}
		}
	}
}
