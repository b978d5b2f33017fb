package allreduce

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// treeLendInput is rank r's deterministic payload: mixed signs and
// magnitudes, so a sum taken in any other order or from a segment read at
// the wrong time comes out with different bits.
func treeLendInput(rank, round, length int) []float32 {
	rng := newTestRNG(int64(1000*rank + round + 1))
	data := make([]float32, length)
	for i := range data {
		data[i] = float32(rng.Intn(2001)-1000) * float32(math.Pow(2, float64(rng.Intn(9)-4)))
	}
	return data
}

// runTreeRounds runs two back-to-back multi-color allreduces on every rank of
// w and returns each rank's two results. A rank scribbles over its buffer the
// moment a call returns, as the next step's backward would: with segments
// lent up the tree, that write races with any read of them still to come —
// which the race detector then reports, and the result comparison catches
// when it does not.
func runTreeRounds(w *mpi.World, n, length int, opts Options) ([][2][]float32, error) {
	results := make([][2][]float32, n)
	var mu sync.Mutex
	err := w.Run(func(c *mpi.Comm) error {
		var got [2][]float32
		for round := range got {
			data := treeLendInput(c.Rank(), round, length)
			if err := AllReduce(c, data, AlgMultiColor, opts); err != nil {
				return fmt.Errorf("rank %d round %d: %w", c.Rank(), round, err)
			}
			got[round] = append([]float32(nil), data...)
			for i := range data {
				data[i] = float32(math.NaN())
			}
		}
		mu.Lock()
		results[c.Rank()] = got
		mu.Unlock()
		return nil
	})
	return results, err
}

// TestTreeLendShareMatchesCopyingPath holds the lending, sharing tree to the
// copying one on worlds whose trees have interior levels — where the
// happens-before argument of reduceBcastTree needs its induction — for every
// color count, for segments that pipeline deeply (8 floats) and not at all
// (16,384), and for payloads shorter than the color count. The reference is
// the same call on a world built with an EMPTY FaultPlan: a fault transport
// does not implement the lend/share seam, so it runs one private copy per
// message, the path the trees ran before lending existed. Results must agree
// bit for bit, rank by rank, and World.Traffic byte for byte.
func TestTreeLendShareMatchesCopyingPath(t *testing.T) {
	for _, n := range []int{5, 8, 13, 16, 21} {
		for colors := 2; colors <= 4; colors++ {
			for _, seg := range []int{8, 16384} {
				for _, length := range []int{0, 1, colors - 1, 1000, 70001} {
					if seg == 8 && length > 1000 {
						continue // thousands of 32-byte messages per rank prove nothing more
					}
					opts := Options{Colors: colors, SegmentFloats: seg}
					name := fmt.Sprintf("n%d colors%d seg%d len%d", n, colors, seg, length)
					run := func(faults bool) ([][2][]float32, mpi.Traffic) {
						w, err := mpi.NewTopologyWorld(n, mpi.UniformTopology(n, 3), mpi.LinkProfile{}, mpi.LinkProfile{})
						if err != nil {
							t.Fatal(err)
						}
						defer w.Close()
						if faults {
							w.InjectFaults(mpi.FaultPlan{})
						}
						res, err := runTreeRounds(w, n, length, opts)
						if err != nil {
							t.Fatalf("%s faults=%v: %v", name, faults, err)
						}
						return res, w.Traffic()
					}
					lent, lentTraffic := run(false)
					copied, copiedTraffic := run(true)
					if lentTraffic != copiedTraffic {
						t.Fatalf("%s: lending world moved %+v, copying world %+v", name, lentTraffic, copiedTraffic)
					}
					for rank := range lent {
						for round := range lent[rank] {
							a, b := lent[rank][round], copied[rank][round]
							for i := range a {
								if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
									t.Fatalf("%s rank %d round %d: element %d = %v lent, %v copied", name, rank, round, i, a[i], b[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// runTreeUpdateRounds is runTreeRounds over MultiColorUpdate: every rank
// starts from the same weights, the colour roots take a momentum-free
// weight-decayed step on each reduced segment, and the weights carry over
// to the second round as a trainer's would. It returns each rank's weights
// after each round, and fails a rank whose roots stepped anything but
// exactly its ColorRootBounds range.
func runTreeUpdateRounds(w *mpi.World, n, length int, opts Options) ([][2][]float32, error) {
	results := make([][2][]float32, n)
	bounds := ColorRootBounds(n, length, opts)
	var mu sync.Mutex
	err := w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		weights := treeLendInput(-1, 0, length)
		var grad []float32
		stepped := 0
		update := func(lo, hi int) {
			if lo < bounds[rank] || hi > bounds[rank+1] {
				stepped = -length - 1 // outside this rank's root range
			}
			for i := lo; i < hi; i++ {
				weights[i] -= 0.125*grad[i] + 0.0625*weights[i]
			}
			stepped += hi - lo
		}
		var got [2][]float32
		for round := range got {
			grad = treeLendInput(rank, round, length)
			stepped = 0
			if err := MultiColorUpdate(c, grad, weights, opts, update); err != nil {
				return fmt.Errorf("rank %d round %d: %w", rank, round, err)
			}
			if stepped != bounds[rank+1]-bounds[rank] {
				return fmt.Errorf("rank %d round %d: stepped %d elements, roots [%d,%d)", rank, round, stepped, bounds[rank], bounds[rank+1])
			}
			got[round] = append([]float32(nil), weights...)
			for i := range grad {
				grad[i] = float32(math.NaN())
			}
		}
		mu.Lock()
		results[rank] = got
		mu.Unlock()
		return nil
	})
	return results, err
}

// TestTreeLendShareRootUpdateMatchesCopyingPath holds the tree with the
// optimizer step at its colour roots, whose down pass writes the weights
// instead of the gradient, to the same call on the copying world (an empty
// FaultPlan lends and shares nothing), on multi-level trees and with
// segments that divide no chunk. The gradient is overwritten with NaN the
// moment a call returns: a lent gradient window read after that is a race
// report, or NaN in the weights. Weights must agree bit for bit between the
// two worlds and across ranks, and World.Traffic byte for byte.
func TestTreeLendShareRootUpdateMatchesCopyingPath(t *testing.T) {
	for _, n := range []int{5, 8, 13, 17} {
		for colors := 2; colors <= 4; colors++ {
			for _, tc := range [][2]int{{7, 1}, {7, 1000}, {16384, 70001}} {
				seg, length := tc[0], tc[1]
				opts := Options{Colors: colors, SegmentFloats: seg}
				name := fmt.Sprintf("n%d colors%d seg%d len%d", n, colors, seg, length)
				run := func(faults bool) ([][2][]float32, mpi.Traffic) {
					w, err := mpi.NewTopologyWorld(n, mpi.UniformTopology(n, 3), mpi.LinkProfile{}, mpi.LinkProfile{})
					if err != nil {
						t.Fatal(err)
					}
					defer w.Close()
					if faults {
						w.InjectFaults(mpi.FaultPlan{})
					}
					res, err := runTreeUpdateRounds(w, n, length, opts)
					if err != nil {
						t.Fatalf("%s faults=%v: %v", name, faults, err)
					}
					return res, w.Traffic()
				}
				lent, lentTraffic := run(false)
				copied, copiedTraffic := run(true)
				if lentTraffic != copiedTraffic {
					t.Fatalf("%s: lending world moved %+v, copying world %+v", name, lentTraffic, copiedTraffic)
				}
				for rank := range lent {
					for round := range lent[rank] {
						a, b, ref := lent[rank][round], copied[rank][round], copied[0][round]
						for i := range a {
							if math.Float32bits(a[i]) != math.Float32bits(b[i]) || math.Float32bits(b[i]) != math.Float32bits(ref[i]) {
								t.Fatalf("%s rank %d round %d: weight %d = %v lent, %v copied, %v on rank 0", name, rank, round, i, a[i], b[i], ref[i])
							}
						}
					}
				}
			}
		}
	}
}

// ColorRootBounds tiles the payload in ascending rank order, and the range
// of rank r is exactly the chunk of the colour r roots.
func TestColorRootBoundsMatchTrees(t *testing.T) {
	for n := 1; n <= 17; n++ {
		for colors := 1; colors <= 4; colors++ {
			opts := Options{Colors: colors}
			k := EffectiveColors(n, colors)
			b := ColorRootBounds(n, 1001, opts)
			if len(b) != n+1 || b[0] != 0 || b[n] != 1001 {
				t.Fatalf("n%d colors%d: bounds %v", n, colors, b)
			}
			roots := make(map[int][2]int)
			for color, tree := range colorTrees(n, k) {
				lo, hi := ChunkBounds(1001, k, color)
				roots[tree.Root] = [2]int{lo, hi}
			}
			for r := 0; r < n; r++ {
				got := [2]int{b[r], b[r+1]}
				want, ok := roots[r]
				if !ok {
					want = [2]int{b[r], b[r]} // roots no colour: empty
				}
				if got != want {
					t.Fatalf("n%d colors%d rank %d: roots %v, the trees say %v", n, colors, r, got, want)
				}
			}
		}
	}
}

// multiColor's fan-out state is recycled: a call takes an idle state, grows
// it to its color count at most once, and hands it back without references
// to the call's communicator or payload — so a warm call allocates no
// closures, error slots or WaitGroup (what remains is the runtime's: a g or
// a sudog when a free list runs dry).
func TestMultiColorReusesCallState(t *testing.T) {
	for len(colorRuns) > 0 {
		<-colorRuns
	}
	r := getColorRun(4)
	colorRuns <- r
	w := mpi.NewWorld(4)
	defer w.Close()
	if _, err := runTreeRounds(w, 4, 64, Options{Colors: 4, SegmentFloats: 16}); err != nil {
		t.Fatal(err)
	}
	if len(colorRuns) != 4 {
		t.Fatalf("%d idle call states after 4 ranks ran, want 4", len(colorRuns))
	}
	seen := false
	for i := 0; i < 4; i++ {
		s := <-colorRuns
		seen = seen || s == r
		if len(s.tasks) != 4 || len(s.errs) != 4 {
			t.Fatalf("call state has %d tasks and %d error slots, want 4 and 4", len(s.tasks), len(s.errs))
		}
		if s.c != nil || s.data != nil || s.weights != nil || s.update != nil || s.trees != nil {
			t.Fatal("an idle call state still references the last call's communicator or payload")
		}
	}
	if !seen {
		t.Fatal("the idle call state was not reused")
	}
}
