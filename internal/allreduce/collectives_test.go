package allreduce

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
)

// varHalving names, for these tests, the recursive halving / doubling forms
// (rsHalving, agDoubling): log2(n) rounds of pairwise exchange over a
// power-of-two group. The package's callers compose them directly
// (rabenseifner); only AllGather's ring is public.
const varHalving Variant = "halving"

// reduceScatter runs the in-package reduce-scatter of the given form over
// bounds (nil: uniform); the halving form falls back to the ring where the
// rank count is not a power of two.
func reduceScatter(c *mpi.Comm, data []float32, bounds []int, v Variant) error {
	n := c.Size()
	if bounds == nil {
		bounds = UniformBounds(len(data), n)
	}
	if v == varHalving && n&(n-1) == 0 {
		return rsHalving(c, data, bounds)
	}
	return rsRing(c, data, bounds)
}

// allGather is reduceScatter's counterpart: the public ring, or agDoubling.
func allGather(c *mpi.Comm, data []float32, bounds []int, v Variant) error {
	n := c.Size()
	if v == varHalving && n&(n-1) == 0 {
		if bounds == nil {
			bounds = UniformBounds(len(data), n)
		}
		return agDoubling(c, data, bounds)
	}
	return AllGather(c, data, bounds, VarRing)
}

// runReduceScatter checks that after the collective every rank's shard of
// data equals the elementwise sum of all ranks' inputs over that range.
func runReduceScatter(t *testing.T, v Variant, n, length int, bounds []int) {
	t.Helper()
	w := mpi.NewWorld(n)
	defer w.Close()
	want := sumVec(length, n)
	err := w.Run(func(c *mpi.Comm) error {
		data := rankVec(length, c.Rank())
		if err := reduceScatter(c, data, bounds, v); err != nil {
			return err
		}
		b := bounds
		if b == nil {
			b = UniformBounds(length, n)
		}
		for i := b[c.Rank()]; i < b[c.Rank()+1]; i++ {
			if math.Abs(float64(data[i]-want[i])) > 1e-3 {
				return fmt.Errorf("rank %d: shard elem %d = %v, want %v", c.Rank(), i, data[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("variant=%s n=%d len=%d bounds=%v: %v", v, n, length, bounds, err)
	}
}

// runAllGather seeds each rank's shard with the owner's reference values and
// checks the full vector is reassembled bitwise everywhere.
func runAllGather(t *testing.T, v Variant, n, length int, bounds []int) {
	t.Helper()
	w := mpi.NewWorld(n)
	defer w.Close()
	ref := rankVec(length, 7)
	err := w.Run(func(c *mpi.Comm) error {
		b := bounds
		if b == nil {
			b = UniformBounds(length, n)
		}
		data := make([]float32, length)
		copy(data[b[c.Rank()]:b[c.Rank()+1]], ref[b[c.Rank()]:b[c.Rank()+1]])
		if err := allGather(c, data, bounds, v); err != nil {
			return err
		}
		for i := range data {
			if data[i] != ref[i] {
				return fmt.Errorf("rank %d: elem %d = %v, want bitwise %v", c.Rank(), i, data[i], ref[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("variant=%s n=%d len=%d bounds=%v: %v", v, n, length, bounds, err)
	}
}

func TestReduceScatterVariantsAllSizes(t *testing.T) {
	for _, v := range []Variant{VarRing, varHalving} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
			for _, length := range []int{1, 13, 1000} {
				runReduceScatter(t, v, n, length, nil)
			}
		}
	}
}

func TestAllGatherVariantsAllSizes(t *testing.T) {
	for _, v := range []Variant{VarRing, varHalving} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
			for _, length := range []int{1, 13, 1000} {
				runAllGather(t, v, n, length, nil)
			}
		}
	}
}

// Uneven, empty-shard-bearing layouts: the param-aligned layouts the sharded
// optimizer produces (including ranks starved of parameters entirely).
func TestCollectivesUnevenAndEmptyShards(t *testing.T) {
	for _, v := range []Variant{VarRing, varHalving} {
		runReduceScatter(t, v, 4, 100, []int{0, 90, 90, 95, 100})
		runAllGather(t, v, 4, 100, []int{0, 90, 90, 95, 100})
		runReduceScatter(t, v, 4, 7, []int{0, 7, 7, 7, 7})
		runAllGather(t, v, 4, 7, []int{0, 7, 7, 7, 7})
		runReduceScatter(t, v, 3, 5, []int{0, 0, 5, 5})
		runAllGather(t, v, 3, 5, []int{0, 0, 5, 5})
	}
}

func TestCollectivesRejectBadBounds(t *testing.T) {
	w := mpi.NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		data := make([]float32, 10)
		if err := AllGather(c, data, []int{0, 10}, VarRing); err == nil {
			return fmt.Errorf("short bounds should error")
		}
		if err := AllGather(c, data, []int{0, 4, 9}, VarRing); err == nil {
			return fmt.Errorf("non-covering bounds should error")
		}
		if err := AllGather(c, data, []int{0, 7, 10}, Variant("bogus")); err == nil {
			return fmt.Errorf("unknown variant should error")
		}
		if err := AllGather(c, data, []int{0, 8, 10}, VarRing); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Reduce-scatter composed with allgather over the same bounds must be a full
// allreduce — the decomposition identity the refactor rests on.
func TestReduceScatterPlusAllGatherIsAllReduce(t *testing.T) {
	const n, length = 5, 333
	for _, v := range []Variant{VarRing, varHalving} {
		w := mpi.NewWorld(n)
		want := sumVec(length, n)
		err := w.Run(func(c *mpi.Comm) error {
			data := rankVec(length, c.Rank())
			if err := reduceScatter(c, data, nil, v); err != nil {
				return err
			}
			if err := allGather(c, data, nil, v); err != nil {
				return err
			}
			for i := range data {
				if math.Abs(float64(data[i]-want[i])) > 1e-3 {
					return fmt.Errorf("rank %d: elem %d = %v, want %v", c.Rank(), i, data[i], want[i])
				}
			}
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatalf("variant=%s: %v", v, err)
		}
	}
}

// The compressed reduce-scatter must hand every owner the bitwise-identical
// bucket sums the full BucketedAllReduce computes, while moving strictly
// fewer wire bytes.
func TestBucketedReduceScatterMatchesAllReduceBitwise(t *testing.T) {
	const n, length, bucket = 4, 3000, 256
	for _, codec := range []compress.Codec{compress.Identity{}, compress.Int8{}, compress.TopK{Ratio: 0.25}} {
		full := make([][]float32, n)
		var fullStats CompressedStats
		w := mpi.NewWorld(n)
		err := w.Run(func(c *mpi.Comm) error {
			data := rankVec(length, c.Rank())
			st, err := BucketedAllReduce(c, data, codec, CompressedOptions{BucketFloats: bucket})
			if c.Rank() == 0 {
				fullStats = st
			}
			full[c.Rank()] = data
			return err
		})
		w.Close()
		if err != nil {
			t.Fatalf("codec=%s allreduce: %v", codec.Name(), err)
		}

		bounds := []int{0, 700, 700, 2100, length} // uneven + one empty shard
		var rsStats CompressedStats
		w2 := mpi.NewWorld(n)
		err = w2.Run(func(c *mpi.Comm) error {
			data := rankVec(length, c.Rank())
			st, err := BucketedReduceScatter(c, data, codec, CompressedOptions{BucketFloats: bucket, ShardBounds: bounds})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				rsStats = st
			}
			if st.Buckets != int64((length+bucket-1)/bucket) {
				return fmt.Errorf("rank %d: %d buckets", c.Rank(), st.Buckets)
			}
			for i := bounds[c.Rank()]; i < bounds[c.Rank()+1]; i++ {
				if data[i] != full[c.Rank()][i] {
					return fmt.Errorf("rank %d: shard elem %d = %v, allreduce got %v",
						c.Rank(), i, data[i], full[c.Rank()][i])
				}
			}
			return nil
		})
		w2.Close()
		if err != nil {
			t.Fatalf("codec=%s reduce-scatter: %v", codec.Name(), err)
		}
		if rsStats.BytesSent >= fullStats.BytesSent {
			t.Fatalf("codec=%s: reduce-scatter sent %d bytes, allreduce %d — routing to owners must cut traffic",
				codec.Name(), rsStats.BytesSent, fullStats.BytesSent)
		}
	}
}

// SelfDecoded must be complete on every rank in reduce-scatter mode — also
// for buckets the rank does not own — or error feedback would corrupt the
// residual for non-shard ranges.
func TestBucketedReduceScatterSelfDecodedComplete(t *testing.T) {
	const n, length, bucket = 3, 2000, 512
	codec := compress.TopK{Ratio: 0.25}
	w := mpi.NewWorld(n)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		orig := rankVec(length, c.Rank())
		data := append([]float32(nil), orig...)
		self := make([]float32, length)
		_, err := BucketedReduceScatter(c, data, codec, CompressedOptions{BucketFloats: bucket, SelfDecoded: self})
		if err != nil {
			return err
		}
		want := make([]float32, length)
		for lo := 0; lo < length; lo += bucket {
			hi := min(lo+bucket, length)
			if err := codec.Decompress(want[lo:hi], compress.Encode(codec, orig[lo:hi])); err != nil {
				return err
			}
		}
		for i := range want {
			if self[i] != want[i] {
				return fmt.Errorf("rank %d: self[%d] = %v, want %v", c.Rank(), i, self[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BucketedAllReduce must refuse a shard layout (the caller wanted
// BucketedReduceScatter).
func TestBucketedAllReduceRejectsShardBounds(t *testing.T) {
	w := mpi.NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		_, err := BucketedAllReduce(c, make([]float32, 8), compress.Identity{},
			CompressedOptions{ShardBounds: []int{0, 4, 8}})
		if err == nil {
			return fmt.Errorf("ShardBounds on BucketedAllReduce should error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUniformBoundsContract(t *testing.T) {
	for _, n := range []int{1, 3, 7} {
		for _, l := range []int{0, 1, 13, 1000} {
			b := UniformBounds(l, n)
			if len(b) != n+1 || b[0] != 0 || b[n] != l {
				t.Fatalf("UniformBounds(%d,%d) = %v: must have n+1 entries covering [0,%d)", l, n, b, l)
			}
			for i := 1; i <= n; i++ {
				if b[i] < b[i-1] {
					t.Fatalf("UniformBounds(%d,%d) decreases at %d: %v", l, n, i, b)
				}
			}
		}
	}
}

// An interior EMPTY shard whose degenerate boundary point falls inside a
// bucket must not be treated as an owner: it receives no payloads, reduces
// nothing, and surfaces nil Sums — otherwise peers would ship it every
// payload for zero owned elements.
func TestBucketedReduceScatterEmptyShardReceivesNothing(t *testing.T) {
	const n, length, bucket = 3, 100, 100 // one bucket spanning all shards
	bounds := []int{0, 90, 90, length}    // rank 1 empty, boundary inside the bucket
	w := mpi.NewWorld(n)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		orig := rankVec(length, c.Rank())
		data := append([]float32(nil), orig...)
		st, err := BucketedReduceScatter(c, data, compress.Identity{}, CompressedOptions{BucketFloats: bucket, ShardBounds: bounds})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if st.BytesRecv != 0 {
				return fmt.Errorf("empty shard received %d bytes", st.BytesRecv)
			}
			for i := range data {
				if data[i] != orig[i] {
					return fmt.Errorf("empty shard's data mutated at %d", i)
				}
			}
		}
		// Each non-empty owner gets payloads from both peers (incl. the
		// empty-shard rank, which still contributes its gradient).
		if c.Rank() != 1 && st.BytesRecv != int64(4*length*(n-1)) {
			return fmt.Errorf("rank %d received %d bytes, want %d", c.Rank(), st.BytesRecv, 4*length*(n-1))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
