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
// the fat-tree. The last color runs on the calling goroutine; no goroutine
// outlives the call. With update set the down pass carries weights instead
// of the sum (MultiColorUpdate); without it, data ends as the sum everywhere.
func multiColor(c *mpi.Comm, data, weights []float32, opts Options, update func(lo, hi int)) error {
	k := EffectiveColors(c.Size(), opts.Colors)
	r := getColorRun(k)
	r.c, r.data, r.weights, r.update = c, data, weights, update
	r.segFloats, r.trees = opts.SegmentFloats, colorTrees(c.Size(), k)
	r.wg.Add(k - 1)
	for color := 0; color < k-1; color++ {
		go r.tasks[color]()
	}
	r.run(k - 1)
	r.wg.Wait()
	var first error
	for _, err := range r.errs[:k] {
		if err != nil && first == nil {
			first = err
		}
	}
	r.c, r.data, r.weights, r.update, r.trees = nil, nil, nil, nil, nil
	clear(r.errs)
	select {
	case colorRuns <- r:
	default:
	}
	return first
}

// MultiColorUpdate is AllReduce(c, grad, AlgMultiColor, opts) with the
// optimizer step moved to the colour roots, the cross-replica sharding of the
// weight update (Xu et al. 2020; ZeRO stage 1). Each colour's root calls
// update(lo, hi) once per segment as soon as grad[lo:hi] holds the global
// sum; update must write weights[lo:hi] (and whatever state it keeps for that
// range), and the down pass then carries those weights, which every other
// rank receives straight into its weights. ColorRootBounds gives the range
// each rank roots. The wire schedule is AllReduce's: the same messages with
// the same sizes, tags and order. On return weights holds the new weights on
// every rank; grad is the global sum only over the rank's own root range.
func MultiColorUpdate(c *mpi.Comm, grad, weights []float32, opts Options, update func(lo, hi int)) error {
	if len(weights) != len(grad) {
		return fmt.Errorf("allreduce: %d weights for %d gradient elements", len(weights), len(grad))
	}
	if c.Size() == 1 {
		update(0, len(grad))
		return nil
	}
	return multiColor(c, grad, weights, opts.withDefaults(), update)
}

// ColorRootBounds is the multi-colour tree's colour-root layout over a
// payload of length elements on ranks ranks: rank r roots [b[r], b[r+1]),
// the chunk MultiColorUpdate steps there. It has length ranks+1 and ascends,
// and a rank that roots no colour gets an empty range: colour c's root is
// c·(ranks/k), so each rank roots at most one colour and roots increase with
// the colour index. The ranges tile [0, length) in rank order, the shape a
// sharded checkpoint gathers.
func ColorRootBounds(ranks, length int, opts Options) []int {
	k := EffectiveColors(ranks, opts.withDefaults().Colors)
	rotation := ranks / k
	b := make([]int, ranks+1)
	for r := range b {
		// The first colour whose root is at or after r.
		b[r], _ = ChunkBounds(length, k, min((r+rotation-1)/rotation, k))
	}
	return b
}

// colorRun is one multiColor call's fan-out state: the arguments the colors
// read (the update hook and its weights included), their error slots, the
// WaitGroup, and one argument-less closure per color — a func value `go`
// starts as it is, where a call with arguments is wrapped in a fresh closure
// every time. It is recycled through colorRuns,
// so a training step's allreduce allocates none of it.
type colorRun struct {
	c         *mpi.Comm
	data      []float32
	weights   []float32        // the down pass's buffer when update is set
	update    func(lo, hi int) // the root turnaround's optimizer step, or nil
	segFloats int
	trees     []Tree
	wg        sync.WaitGroup
	errs      []error
	tasks     []func()
}

// colorRuns holds idle colorRuns, one per concurrent caller at most: 64
// covers every rank of the in-process worlds this repository builds, and a
// state that does not fit is simply collected.
var colorRuns = make(chan *colorRun, 64)

// getColorRun returns a state with at least k error slots and tasks.
func getColorRun(k int) *colorRun {
	var got *colorRun
	select {
	case got = <-colorRuns:
	default:
		got = new(colorRun)
	}
	// The tasks capture r, never reassigned, by value; capturing got,
	// assigned twice, would move it to the heap on every call.
	r := got
	for color := len(r.tasks); color < k; color++ {
		color := color
		r.errs = append(r.errs, nil)
		r.tasks = append(r.tasks, func() {
			defer r.wg.Done()
			r.run(color)
		})
	}
	return r
}

// run takes one color's chunk up and down its tree.
func (r *colorRun) run(color int) {
	lo, hi := ChunkBounds(len(r.data), len(r.trees), color)
	r.errs[color] = r.reduceBcastTree(color, lo, hi)
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

// reduceBcastTree pipelines chunk [lo, hi) up and back down one color's
// tree. The node's role is fixed by the tree: leaves only send segments to
// their parent; interior nodes sum their children's segments into their
// local contribution and forward; the root additionally turns each
// fully-reduced segment around and starts the downward broadcast
// immediately, so the reduce and broadcast phases overlap segment-by-segment.
// At the turnaround the root hands the segment to r.update when one is set,
// and the down pass then carries r.weights instead of the sum.
//
// Neither phase copies a segment per message where the transport can avoid
// it. Going up, a node LENDS its window of the segment to its parent
// (mpi.Comm.LendFloats): the parent sums straight from the child's memory.
// That needs no synchronisation beyond the messages themselves, at any tree
// depth: every read of an up-lent view of segment s happens-before the
// root's reduction of s (the parent's add completes before it lends or turns
// s around, and a mailbox hand-off orders the two sides), which
// happens-before the root's update of s and every down message of s; and a
// node's next write of its window of s comes after it receives that down
// message. Without update that write is the RecvFloatsInto of the message
// itself. With update the down pass writes the weights instead, so the lent
// gradient window is not written again inside the call at all: its next
// write is whatever the caller does after the call returns, which is after
// the last down message arrived. Going down, a node encodes a segment once
// for all its children (SendFloatsAll). On transports that cannot lend or
// share both calls send one private copy per message; messages have the
// same size, tag and order either way.
func (r *colorRun) reduceBcastTree(color, lo, hi int) error {
	c, chunk := r.c, r.data[lo:hi]
	rank := c.Rank()
	parent := r.trees[color].Parent[rank]
	children := r.trees[color].Children[rank]
	upTag, downTag := mcTags(color)
	nseg := numSegs(len(chunk), r.segFloats)
	down := chunk
	if r.update != nil {
		down = r.weights[lo:hi]
	}

	// Upward (reduce) pass, root turnaround included.
	for s := 0; s < nseg; s++ {
		sLo, sHi := segSpan(s, r.segFloats, len(chunk))
		seg := chunk[sLo:sHi]
		for _, ch := range children {
			if err := c.RecvFloatsAdd(seg, ch, upTag); err != nil {
				return fmt.Errorf("allreduce: multicolor segment from %d: %w", ch, err)
			}
		}
		var err error
		if parent >= 0 {
			err = c.LendFloats(parent, upTag, seg)
		} else {
			// Root: this segment is globally reduced; step it (when an
			// update is set) and broadcast it down.
			if r.update != nil {
				r.update(lo+sLo, lo+sHi)
			}
			err = c.SendFloatsAll(children, downTag, down[sLo:sHi])
		}
		if err != nil {
			return err
		}
	}

	// Downward (broadcast) pass for non-roots.
	if parent < 0 {
		return nil
	}
	for s := 0; s < nseg; s++ {
		sLo, sHi := segSpan(s, r.segFloats, len(chunk))
		if err := c.RecvFloatsInto(down[sLo:sHi], parent, downTag); err != nil {
			return fmt.Errorf("allreduce: multicolor bcast segment: %w", err)
		}
		if err := c.SendFloatsAll(children, downTag, down[sLo:sHi]); err != nil {
			return err
		}
	}
	return nil
}
