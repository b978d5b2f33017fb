package allreduce

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
)

// runAllReduce executes alg over n in-process ranks with per-rank vectors of
// the given length and checks the result equals the elementwise sum on every
// rank.
func runAllReduce(t *testing.T, alg Algorithm, n, length int, opts Options) {
	t.Helper()
	w := mpi.NewWorld(n)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		data := make([]float32, length)
		for i := range data {
			data[i] = float32(c.Rank()+1) * float32(i%7+1)
		}
		if err := AllReduce(c, data, alg, opts); err != nil {
			return err
		}
		for i := range data {
			var want float32
			for r := 0; r < n; r++ {
				want += float32(r+1) * float32(i%7+1)
			}
			if math.Abs(float64(data[i]-want)) > 1e-3 {
				return fmt.Errorf("rank %d: data[%d] = %v, want %v", c.Rank(), i, data[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("alg=%s n=%d len=%d: %v", alg, n, length, err)
	}
}

func TestAllAlgorithmsAllSizes(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 12, 16}
	lengths := []int{1, 13, 1000}
	for _, alg := range Algorithms() {
		for _, n := range sizes {
			for _, l := range lengths {
				runAllReduce(t, alg, n, l, Options{})
			}
		}
	}
}

func TestMultiColorSmallSegments(t *testing.T) {
	// Segment smaller than the chunk forces real pipelining.
	runAllReduce(t, AlgMultiColor, 8, 10000, Options{Colors: 4, SegmentFloats: 64})
	runAllReduce(t, AlgMultiColor, 16, 4096, Options{Colors: 4, SegmentFloats: 16})
}

func TestMultiColorColorCounts(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		runAllReduce(t, AlgMultiColor, 16, 2048, Options{Colors: k, SegmentFloats: 128})
	}
}

func TestRingSmallSegments(t *testing.T) {
	runAllReduce(t, AlgRing, 7, 5000, Options{SegmentFloats: 100})
}

func TestPayloadShorterThanColors(t *testing.T) {
	// 3 elements, 4 colors: some chunks are empty.
	runAllReduce(t, AlgMultiColor, 8, 3, Options{Colors: 4})
	runAllReduce(t, AlgMultiColor, 8, 0, Options{Colors: 4})
}

func TestUnknownAlgorithm(t *testing.T) {
	w := mpi.NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		err := AllReduce(c, make([]float32, 4), Algorithm("bogus"), Options{})
		if err == nil {
			return fmt.Errorf("want error for unknown algorithm")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankIsNoOp(t *testing.T) {
	w := mpi.NewWorld(1)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		data := []float32{1, 2, 3}
		if err := AllReduce(c, data, AlgMultiColor, Options{}); err != nil {
			return err
		}
		if data[0] != 1 || data[2] != 3 {
			return fmt.Errorf("single-rank allreduce changed data: %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTreeStructure(t *testing.T) {
	// Reproduce the paper's Figure 2: 8 nodes, 4 colors, 4-ary trees.
	// Color 0 is rooted at node 0 with node 1 the only other interior node.
	tr := BuildTree(8, 4, 0, 2)
	if tr.Root != 0 {
		t.Fatalf("color0 root = %d, want 0", tr.Root)
	}
	if len(tr.Children[0]) != 4 {
		t.Fatalf("root children = %v, want 4 of them", tr.Children[0])
	}
	if len(tr.Children[1]) != 3 { // nodes 5,6,7
		t.Fatalf("node1 children = %v, want 3", tr.Children[1])
	}
	// Color 1 rooted at node 2, interior {2,3}.
	tr1 := BuildTree(8, 4, 1, 2)
	if tr1.Root != 2 {
		t.Fatalf("color1 root = %d, want 2", tr1.Root)
	}
	if len(tr1.Children[2]) == 0 || len(tr1.Children[3]) == 0 {
		t.Fatal("color1 interior should be nodes 2 and 3")
	}
}

func TestTreeInteriorDisjointAcrossColors(t *testing.T) {
	for _, n := range []int{4, 8, 12, 16, 24, 32, 64} {
		k := EffectiveColors(n, 4)
		rotation := n / k
		interiorSeen := make(map[int]int) // node -> color
		for color := 0; color < k; color++ {
			tr := BuildTree(n, k, color, rotation)
			for node, ch := range tr.Children {
				if len(ch) == 0 {
					continue
				}
				if prev, ok := interiorSeen[node]; ok {
					t.Fatalf("n=%d k=%d: node %d interior for colors %d and %d", n, k, node, prev, color)
				}
				interiorSeen[node] = color
			}
		}
	}
}

func TestTreeSpansAllNodes(t *testing.T) {
	for _, n := range []int{2, 5, 8, 16, 31} {
		k := EffectiveColors(n, 4)
		for color := 0; color < k; color++ {
			tr := BuildTree(n, k, color, n/k)
			// Every non-root node must reach the root by parent pointers.
			for node := 0; node < n; node++ {
				cur := node
				steps := 0
				for cur != tr.Root {
					cur = tr.Parent[cur]
					if cur < 0 || steps > n {
						t.Fatalf("n=%d color=%d: node %d does not reach root", n, color, node)
					}
					steps++
				}
			}
			// Children and parent views must agree.
			for node, ch := range tr.Children {
				for _, child := range ch {
					if tr.Parent[child] != node {
						t.Fatalf("n=%d color=%d: parent/child mismatch at %d->%d", n, color, node, child)
					}
				}
			}
		}
	}
}

func TestEffectiveColors(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{8, 4, 4},
		{16, 4, 4},
		{32, 4, 4},
		{12, 4, 4},
		{10, 4, 3},
		{1, 4, 1},
		{2, 4, 2},
		{3, 4, 3},
	}
	for _, tc := range cases {
		if got := EffectiveColors(tc.n, tc.k); got != tc.want {
			t.Fatalf("EffectiveColors(%d,%d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}

func TestChunkBoundsCoverAll(t *testing.T) {
	f := func(length uint16, k uint8) bool {
		kk := int(k%8) + 1
		l := int(length % 10000)
		prev := 0
		for i := 0; i < kk; i++ {
			lo, hi := ChunkBounds(l, kk, i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every algorithm computes the same result as the naive one, on
// random vectors and rank counts.
func TestPropAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRNG(seed)
		n := 2 + rng.Intn(7)
		length := 1 + rng.Intn(300)
		inputs := make([][]float32, n)
		for r := range inputs {
			inputs[r] = make([]float32, length)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.Intn(2000)-1000) / 16 // exact in fp32
			}
		}
		want := make([]float32, length)
		for _, in := range inputs {
			for i, v := range in {
				want[i] += v
			}
		}
		for _, alg := range []Algorithm{AlgRing, AlgBucketRing, AlgDefault, AlgRabenseifner, AlgMultiColor} {
			w := mpi.NewWorld(n)
			bad := false
			err := w.Run(func(c *mpi.Comm) error {
				data := append([]float32(nil), inputs[c.Rank()]...)
				if err := AllReduce(c, data, alg, Options{SegmentFloats: 37, Colors: 4}); err != nil {
					return err
				}
				for i := range data {
					if math.Abs(float64(data[i]-want[i])) > 1e-2 {
						bad = true
					}
				}
				return nil
			})
			w.Close()
			if err != nil || bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// newTestRNG is a tiny deterministic generator for property tests.
type testRNG struct{ state uint64 }

func newTestRNG(seed int64) *testRNG {
	return &testRNG{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *testRNG) Intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}
