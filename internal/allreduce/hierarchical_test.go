package allreduce

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
)

// hierTopologies is the topology sweep the bitwise equivalence tests run:
// even nodes, ragged tails, one fat node, and all-singleton nodes (a pure
// leader chain).
func hierTopologies(n int) []mpi.Topology {
	var topos []mpi.Topology
	for _, per := range []int{1, 2, 3, n} {
		if per <= n {
			topos = append(topos, mpi.UniformTopology(n, per))
		}
	}
	return topos
}

func topoName(t mpi.Topology) string {
	return fmt.Sprintf("nodes=%d/ranks=%d", t.Nodes(), len(t.Node))
}

// runFlatAndHier runs BucketedAllReduce over the same per-rank inputs twice
// — flat, then hierarchically over topo — and returns both result sets (and
// SelfDecoded captures) indexed by rank.
func runFlatAndHier(t *testing.T, codec compress.Codec, topo *mpi.Topology, n, length, bucket int) (flat, hier, flatSelf, hierSelf [][]float32) {
	t.Helper()
	run := func(tp *mpi.Topology) ([][]float32, [][]float32) {
		w := mpi.NewWorld(n)
		defer w.Close()
		out := make([][]float32, n)
		self := make([][]float32, n)
		var mu sync.Mutex
		err := w.Run(func(c *mpi.Comm) error {
			data := rankVec(length, c.Rank())
			sd := make([]float32, length)
			_, err := BucketedAllReduce(c, data, codec, CompressedOptions{
				BucketFloats: bucket,
				SelfDecoded:  sd,
				Topology:     tp,
			})
			if err != nil {
				return err
			}
			mu.Lock()
			out[c.Rank()] = data
			self[c.Rank()] = sd
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("topo=%v codec=%s: %v", tp, codec.Name(), err)
		}
		return out, self
	}
	flat, flatSelf = run(nil)
	hier, hierSelf = run(topo)
	return flat, hier, flatSelf, hierSelf
}

// TestHierarchicalMatchesFlatBitwise is the tentpole's correctness claim:
// hierarchical routing is a pure routing change — the leader-chain fold
// reproduces the flat all-to-all's rank-order sum bit for bit, across exact
// and lossy codecs, bucket sizes that split the vector unevenly, and node
// layouts from one fat node to a pure leader chain. SelfDecoded (the error
// feedback input) must also be identical.
func TestHierarchicalMatchesFlatBitwise(t *testing.T) {
	const n, length = 6, 1000
	codecs := []compress.Codec{compress.Identity{}, compress.Int8{}, compress.TopK{Ratio: 0.25}}
	for _, topo := range hierTopologies(n) {
		topo := topo
		for _, codec := range codecs {
			codec := codec
			for _, bucket := range []int{64, 333, 4096} {
				name := fmt.Sprintf("%s/%s/bucket=%d", topoName(topo), codec.Name(), bucket)
				t.Run(name, func(t *testing.T) {
					flat, hier, flatSelf, hierSelf := runFlatAndHier(t, codec, &topo, n, length, bucket)
					for r := 0; r < n; r++ {
						for i := range flat[r] {
							if flat[r][i] != hier[r][i] {
								t.Fatalf("rank %d elem %d: flat %v, hierarchical %v", r, i, flat[r][i], hier[r][i])
							}
							if flatSelf[r][i] != hierSelf[r][i] {
								t.Fatalf("rank %d SelfDecoded[%d]: flat %v, hierarchical %v", r, i, flatSelf[r][i], hierSelf[r][i])
							}
						}
					}
				})
			}
		}
	}
}

// TestHierarchicalReduceScatterMatchesFlat: the hierarchical chain composes
// with reduce-scatter mode — shard owners receive exactly the bits the flat
// owner-routed exchange produces, and non-owners' untouched regions stay
// untouched.
func TestHierarchicalReduceScatterMatchesFlat(t *testing.T) {
	const n, length, bucket = 6, 900, 128
	bounds := []int{0, 150, 150, 400, 640, 660, 900} // includes an empty shard
	codecs := []compress.Codec{compress.Identity{}, compress.Int8{}}
	run := func(codec compress.Codec, topo *mpi.Topology) [][]float32 {
		w := mpi.NewWorld(n)
		defer w.Close()
		out := make([][]float32, n)
		var mu sync.Mutex
		err := w.Run(func(c *mpi.Comm) error {
			data := rankVec(length, c.Rank())
			_, err := BucketedReduceScatter(c, data, codec, CompressedOptions{
				BucketFloats: bucket,
				ShardBounds:  bounds,
				Topology:     topo,
			})
			if err != nil {
				return err
			}
			mu.Lock()
			out[c.Rank()] = data
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("codec=%s topo=%v: %v", codec.Name(), topo, err)
		}
		return out
	}
	for _, topo := range hierTopologies(n) {
		topo := topo
		for _, codec := range codecs {
			t.Run(fmt.Sprintf("%s/%s", topoName(topo), codec.Name()), func(t *testing.T) {
				flat := run(codec, nil)
				hier := run(codec, &topo)
				for r := 0; r < n; r++ {
					for i := range flat[r] {
						if flat[r][i] != hier[r][i] {
							t.Fatalf("rank %d elem %d: flat %v, hierarchical %v", r, i, flat[r][i], hier[r][i])
						}
					}
				}
			})
		}
	}
}

// TestHierarchicalSingleRank: a one-rank, one-node topology degenerates to
// the local decode — same as the flat single-rank path.
func TestHierarchicalSingleRank(t *testing.T) {
	topo := mpi.UniformTopology(1, 1)
	w := mpi.NewWorld(1)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		data := rankVec(64, 0)
		want := rankVec(64, 0)
		if _, err := BucketedAllReduce(c, data, compress.Identity{}, CompressedOptions{BucketFloats: 16, Topology: &topo}); err != nil {
			return err
		}
		for i := range data {
			if data[i] != want[i] {
				return fmt.Errorf("elem %d: %v, want %v", i, data[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failingCodec wraps Identity but refuses every Decompress — standing in
// for a corrupt payload at one specific rank.
type failingCodec struct{ compress.Identity }

func (failingCodec) Decompress(dst []float32, payload []byte) error {
	return fmt.Errorf("injected decode failure")
}

func (failingCodec) DecompressAdd(dst []float32, payload []byte) error {
	return fmt.Errorf("injected decode failure")
}

// TestHierarchicalErrorPoisonsDownstream: a fold failure at one leader must
// fail the bucket on EVERY rank — the failing leader forwards a zero-length
// poison message instead of a partial sum, so no rank silently adopts a
// result missing contributions. (In the flat exchange a corrupt payload
// fails every rank that decodes it; the chain must not weaken that.)
func TestHierarchicalErrorPoisonsDownstream(t *testing.T) {
	const n, length = 4, 256
	topo := mpi.UniformTopology(n, 2)
	w := mpi.NewWorld(n)
	defer w.Close()
	errs := make([]error, n)
	var mu sync.Mutex
	_ = w.Run(func(c *mpi.Comm) error {
		var codec compress.Codec = compress.Identity{}
		if c.Rank() == 0 { // leader of node 0: its fold fails
			codec = failingCodec{}
		}
		data := rankVec(length, c.Rank())
		_, err := BucketedAllReduce(c, data, codec, CompressedOptions{BucketFloats: 64, Topology: &topo})
		mu.Lock()
		errs[c.Rank()] = err
		mu.Unlock()
		return nil
	})
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: bucket succeeded despite the upstream fold failure", r)
		}
	}
}

// TestHierarchicalCutsSlowLinkBytes pins the point of the subsystem: on a
// topology world, the hierarchical exchange must move a multiple fewer
// bytes across node boundaries than the flat all-to-all of the same job —
// at 2 nodes × 4 ranks the flat exchange crosses nodes 32 payload-times per
// bucket, the chain twice.
func TestHierarchicalCutsSlowLinkBytes(t *testing.T) {
	const n, length, bucket = 8, 4096, 256
	topo := mpi.UniformTopology(n, 4)
	measure := func(tp *mpi.Topology) int64 {
		w, err := mpi.NewTopologyWorld(n, topo, mpi.LinkProfile{}, mpi.LinkProfile{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		err = w.Run(func(c *mpi.Comm) error {
			data := rankVec(length, c.Rank())
			_, err := BucketedAllReduce(c, data, compress.Identity{}, CompressedOptions{BucketFloats: bucket, Topology: tp})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Traffic().InterBytes
	}
	flat := measure(nil)
	hier := measure(&topo)
	if hier == 0 || flat == 0 {
		t.Fatalf("traffic not accounted: flat %d, hier %d", flat, hier)
	}
	if ratio := float64(flat) / float64(hier); ratio < 2 {
		t.Fatalf("hierarchical exchange saved only %.2fx inter-node bytes (flat %d, hier %d), want >= 2x", ratio, flat, hier)
	}
}
