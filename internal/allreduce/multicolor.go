package allreduce

import (
	"fmt"
	"sync"

	"repro/internal/mpi"
)

// multiColor is the paper's k-color allreduce (Section 4.2): the payload is
// split into k chunks; chunk c is reduced up color c's k-ary spanning tree
// (whose interior nodes are disjoint from every other color's) and broadcast
// back down it. Chunks are further split into pipeline segments, and all k
// colors progress concurrently with no cross-color synchronization —
// mirroring the paper's description of concurrent per-color RDMA flows on
// the fat-tree. The last color runs on the calling goroutine.
func multiColor(c *mpi.Comm, data []float32, opts Options) error {
	k := EffectiveColors(c.Size(), opts.Colors)
	trees := colorTrees(c.Size(), k)
	var wg sync.WaitGroup
	errs := make([]error, k)
	run := func(color int) {
		lo, hi := ChunkBounds(len(data), k, color)
		errs[color] = reduceBcastTree(c, data[lo:hi], trees[color], color, opts.SegmentFloats)
	}
	wg.Add(k - 1)
	for color := 0; color < k-1; color++ {
		go func(color int) {
			defer wg.Done()
			run(color)
		}(color)
	}
	run(k - 1)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// treeCache holds the k color trees of every (ranks, colors) pair a
// multi-color allreduce has run with: they are a function of that pair alone
// and read-only once built, and a training job asks for the same pair every
// step.
var treeCache = struct {
	sync.Mutex
	trees map[[2]int][]Tree
}{trees: make(map[[2]int][]Tree)}

// colorTrees returns the k rotated k-ary trees over n ranks, building them
// on first use.
func colorTrees(n, k int) []Tree {
	treeCache.Lock()
	defer treeCache.Unlock()
	trees, ok := treeCache.trees[[2]int{n, k}]
	if !ok {
		trees = make([]Tree, k)
		for color := range trees {
			trees[color] = BuildTree(n, k, color, n/k)
		}
		treeCache.trees[[2]int{n, k}] = trees
	}
	return trees
}

// mcTags is color's tag pair: segments travelling up its tree and back down.
func mcTags(color int) (up, down int) { return tagMC + 2*color, tagMC + 2*color + 1 }

// numSegs and segSpan are the pipelined collectives' segment geometry — how
// many segFloats-sized segments n elements split into (the last possibly
// short) and which elements segment s covers. Shared by the live loops
// (reduceBcastTree, pipelinedRing) and their schedule extraction.
func numSegs(n, segFloats int) int { return (n + segFloats - 1) / segFloats }
func segSpan(s, segFloats, n int) (lo, hi int) {
	lo = s * segFloats
	return lo, min(lo+segFloats, n)
}

// reduceBcastTree pipelines one chunk up and back down one color's tree.
// The node's role is fixed by the tree: leaves only send segments to their
// parent; interior nodes sum their children's segments into their local
// contribution and forward; the root additionally turns each fully-reduced
// segment around and starts the downward broadcast immediately, so the
// reduce and broadcast phases overlap segment-by-segment.
func reduceBcastTree(c *mpi.Comm, chunk []float32, tree Tree, color, segFloats int) error {
	rank := c.Rank()
	parent := tree.Parent[rank]
	children := tree.Children[rank]
	upTag, downTag := mcTags(color)
	nseg := numSegs(len(chunk), segFloats)

	// Upward (reduce) pass, root turnaround included.
	for s := 0; s < nseg; s++ {
		lo, hi := segSpan(s, segFloats, len(chunk))
		seg := chunk[lo:hi]
		for _, ch := range children {
			if err := c.RecvFloatsAdd(seg, ch, upTag); err != nil {
				return fmt.Errorf("allreduce: multicolor segment from %d: %w", ch, err)
			}
		}
		if parent >= 0 {
			if err := c.SendFloats(parent, upTag, seg); err != nil {
				return err
			}
		} else {
			// Root: this segment is globally reduced; broadcast it down.
			for _, ch := range children {
				if err := c.SendFloats(ch, downTag, seg); err != nil {
					return err
				}
			}
		}
	}

	// Downward (broadcast) pass for non-roots.
	if parent < 0 {
		return nil
	}
	for s := 0; s < nseg; s++ {
		lo, hi := segSpan(s, segFloats, len(chunk))
		if err := c.RecvFloatsInto(chunk[lo:hi], parent, downTag); err != nil {
			return fmt.Errorf("allreduce: multicolor bcast segment: %w", err)
		}
		for _, ch := range children {
			if err := c.SendFloats(ch, downTag, chunk[lo:hi]); err != nil {
				return err
			}
		}
	}
	return nil
}
