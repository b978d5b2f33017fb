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
		if s.c != nil || s.data != nil || s.trees != nil {
			t.Fatal("an idle call state still references the last call's communicator or payload")
		}
	}
	if !seen {
		t.Fatal("the idle call state was not reused")
	}
}
