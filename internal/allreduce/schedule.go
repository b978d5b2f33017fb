package allreduce

import (
	"fmt"

	"repro/internal/mpi"
)

// This file extracts the *communication schedule* of each collective — the
// exact sequence of wire operations every rank performs, with real payload
// sizes and tags — without running the collective. The discrete-event
// simulator (internal/simevent) replays these schedules over a virtual
// clock to predict step time and per-link traffic at scales the live
// goroutine-per-rank worlds cannot reach.
//
// Drift discipline: the extractors do not re-derive the algorithms. They
// call the same step-geometry hooks the live loops run — rsRingStep /
// agRingStep, halvingRound / doublingRound, shardOwns, newHierPlan,
// hierDownSrc, colorTrees / mcTags, numSegs / segSpan, mpi.AllToAllStep — so
// a change to a collective's routing changes its extracted schedule in
// lockstep. The residual risk (an extractor missing a message class
// entirely) is pinned by the simevent cross-validation suite, which requires
// simulated per-link-class byte totals to EXACTLY equal the live
// mpi.World.Traffic counters at small scale for every codec.

// WireKind classifies a schedule operation.
type WireKind uint8

const (
	// WireSend is a blocking send (Comm.SendFloats): the sender occupies its
	// egress link for the full transfer before its next operation.
	WireSend WireKind = iota
	// WireIsend is a non-blocking send (Comm.Isend): the message enters the
	// sender's egress queue but the rank continues immediately.
	WireIsend
	// WireRecv blocks until the matching (Peer, Tag) message has arrived.
	WireRecv
)

// String implements fmt.Stringer for traces.
func (k WireKind) String() string {
	switch k {
	case WireSend:
		return "send"
	case WireIsend:
		return "isend"
	case WireRecv:
		return "recv"
	default:
		return fmt.Sprintf("wirekind(%d)", int(k))
	}
}

// WireOp is one communication action of one rank: move Bytes to/from Peer
// under Tag. Matching follows the transport's rule: per-(src,tag) FIFO.
type WireOp struct {
	Kind  WireKind
	Peer  int
	Tag   int
	Bytes int
	// Fold marks a receive the live code reduces into its local data
	// (RecvFloatsAdd, DecompressAdd) instead of copying into place — the
	// receives that cost the host a pass of arithmetic over the payload.
	Fold bool
}

// RankSchedule is one rank's wire program: any number of streams, each run
// in strict program order and independent of the others, the way the live
// code splits a rank's work across goroutines. A phased collective is one
// stream; the bucketed Stream is two (the launch goroutine's compressed-
// payload Isends, then the reduce goroutine's blocking receive/fold/forward
// sequence); the multi-color allreduce is one per color.
type RankSchedule [][]WireOp

// BucketRingSchedule extracts AlgBucketRing's wire schedule: the ring
// reduce-scatter (n-1 steps) composed with the ring allgather (n-1 steps)
// over the uniform shard layout, raw float32 on the wire. Empty shards
// still travel as zero-byte messages, exactly like the live SendFloats.
func BucketRingSchedule(ranks, elems int) []RankSchedule {
	scheds := make([]RankSchedule, ranks)
	if ranks <= 1 {
		return scheds
	}
	bounds := UniformBounds(elems, ranks)
	shardBytes := func(i int) int {
		i = ((i % ranks) + ranks) % ranks
		return 4 * (bounds[i+1] - bounds[i])
	}
	for rank := 0; rank < ranks; rank++ {
		right := (rank + 1) % ranks
		left := (rank - 1 + ranks) % ranks
		ops := make([]WireOp, 0, 4*(ranks-1))
		for s := 0; s < ranks-1; s++ {
			sendShard, recvShard := rsRingStep(rank, s)
			ops = append(ops,
				WireOp{Kind: WireSend, Peer: right, Tag: tagRScoll + s, Bytes: shardBytes(sendShard)},
				WireOp{Kind: WireRecv, Peer: left, Tag: tagRScoll + s, Bytes: shardBytes(recvShard), Fold: true})
		}
		for s := 0; s < ranks-1; s++ {
			sendShard, recvShard := agRingStep(rank, s)
			ops = append(ops,
				WireOp{Kind: WireSend, Peer: right, Tag: tagAGcoll + s, Bytes: shardBytes(sendShard)},
				WireOp{Kind: WireRecv, Peer: left, Tag: tagAGcoll + s, Bytes: shardBytes(recvShard)})
		}
		scheds[rank] = RankSchedule{ops}
	}
	return scheds
}

// RabenseifnerSchedule extracts AlgRabenseifner's wire schedule: fold the
// non-power-of-two extras into the core, recursive-halving reduce-scatter,
// recursive-doubling allgather, fan back out. Raw float32 on the wire.
func RabenseifnerSchedule(ranks, elems int) []RankSchedule {
	scheds := make([]RankSchedule, ranks)
	if ranks <= 1 {
		return scheds
	}
	p2 := 1
	for p2*2 <= ranks {
		p2 *= 2
	}
	extra := ranks - p2
	full := 4 * elems
	bounds := UniformBounds(elems, p2)
	for rank := 0; rank < ranks; rank++ {
		var ops []WireOp
		if rank >= p2 {
			ops = append(ops,
				WireOp{Kind: WireSend, Peer: rank - p2, Tag: tagRabFold, Bytes: full},
				WireOp{Kind: WireRecv, Peer: rank - p2, Tag: tagRabBack, Bytes: full})
			scheds[rank] = RankSchedule{ops}
			continue
		}
		if rank < extra {
			ops = append(ops, WireOp{Kind: WireRecv, Peer: rank + p2, Tag: tagRabFold, Bytes: full, Fold: true})
		}
		glo, ghi := 0, p2
		round := 0
		for half := p2 / 2; half >= 1; half /= 2 {
			st := halvingRound(rank, glo, ghi, half, bounds)
			glo, ghi = st.glo, st.ghi
			ops = append(ops,
				WireOp{Kind: WireSend, Peer: st.partner, Tag: tagRabRS + round, Bytes: 4 * (st.sendHi - st.sendLo)},
				WireOp{Kind: WireRecv, Peer: st.partner, Tag: tagRabRS + round, Bytes: 4 * (st.keepHi - st.keepLo), Fold: true})
			round++
		}
		round = 0
		for half := 1; half < p2; half <<= 1 {
			st := doublingRound(rank, half, bounds)
			ops = append(ops,
				WireOp{Kind: WireSend, Peer: st.partner, Tag: tagRabAG + round, Bytes: 4 * (st.sendHi - st.sendLo)},
				WireOp{Kind: WireRecv, Peer: st.partner, Tag: tagRabAG + round, Bytes: 4 * (st.recvHi - st.recvLo)})
			round++
		}
		if rank < extra {
			ops = append(ops, WireOp{Kind: WireSend, Peer: rank + p2, Tag: tagRabBack, Bytes: full})
		}
		scheds[rank] = RankSchedule{ops}
	}
	return scheds
}

// MultiColorSchedule extracts AlgMultiColor's wire schedule: one stream per
// color (the live collective runs one goroutine per color), each walking
// that color's chunk up and back down its tree exactly as reduceBcastTree
// does. A color whose chunk is empty keeps its (empty) stream, so stream i
// is color i on every rank.
func MultiColorSchedule(ranks, elems int, opts Options) []RankSchedule {
	opts = opts.withDefaults()
	scheds := make([]RankSchedule, ranks)
	if ranks <= 1 {
		return scheds
	}
	k := EffectiveColors(ranks, opts.Colors)
	trees := colorTrees(ranks, k)
	for rank := range scheds {
		scheds[rank] = make(RankSchedule, k)
		for color, tree := range trees {
			lo, hi := ChunkBounds(elems, k, color)
			scheds[rank][color] = treeOps(tree, rank, color, hi-lo, opts.SegmentFloats)
		}
	}
	return scheds
}

// treeOps is reduceBcastTree's wire program for one rank: per segment, fold
// every child's partial, then pass it up — or, at the root, turn it around
// and start it down; afterwards non-roots relay the down pass.
func treeOps(tree Tree, rank, color, chunk, segFloats int) []WireOp {
	parent, children := tree.Parent[rank], tree.Children[rank]
	upTag, downTag := mcTags(color)
	nseg := numSegs(chunk, segFloats)
	var ops []WireOp
	sendDown := func(b int) {
		for _, ch := range children {
			ops = append(ops, WireOp{Kind: WireSend, Peer: ch, Tag: downTag, Bytes: b})
		}
	}
	for s := 0; s < nseg; s++ {
		lo, hi := segSpan(s, segFloats, chunk)
		for _, ch := range children {
			ops = append(ops, WireOp{Kind: WireRecv, Peer: ch, Tag: upTag, Bytes: 4 * (hi - lo), Fold: true})
		}
		if parent >= 0 {
			ops = append(ops, WireOp{Kind: WireSend, Peer: parent, Tag: upTag, Bytes: 4 * (hi - lo)})
		} else {
			sendDown(4 * (hi - lo))
		}
	}
	if parent < 0 {
		return ops
	}
	for s := 0; s < nseg; s++ {
		lo, hi := segSpan(s, segFloats, chunk)
		ops = append(ops, WireOp{Kind: WireRecv, Peer: parent, Tag: downTag, Bytes: 4 * (hi - lo)})
		sendDown(4 * (hi - lo))
	}
	return ops
}

// PipelinedRingSchedule extracts AlgRing's wire schedule: every segment
// folded along the ring toward rank 0, then relayed back from rank 0 in the
// opposite direction, one stream per rank.
func PipelinedRingSchedule(ranks, elems int, opts Options) []RankSchedule {
	opts = opts.withDefaults()
	scheds := make([]RankSchedule, ranks)
	if ranks <= 1 {
		return scheds
	}
	nseg := numSegs(elems, opts.SegmentFloats)
	for rank := range scheds {
		var ops []WireOp
		for pass, tag := range [2]int{tagRingReduce, tagRingBcast} {
			// The reduce pass flows from rank+1 to rank-1, the broadcast back.
			from, to := rank+1, rank-1
			if pass == 1 {
				from, to = to, from
			}
			for s := 0; s < nseg; s++ {
				lo, hi := segSpan(s, opts.SegmentFloats, elems)
				if from >= 0 && from < ranks {
					ops = append(ops, WireOp{Kind: WireRecv, Peer: from, Tag: tag, Bytes: 4 * (hi - lo), Fold: pass == 0})
				}
				if to >= 0 && to < ranks {
					ops = append(ops, WireOp{Kind: WireSend, Peer: to, Tag: tag, Bytes: 4 * (hi - lo)})
				}
			}
		}
		scheds[rank] = RankSchedule{ops}
	}
	return scheds
}

// AllToAllVSchedule extracts mpi.Comm.AllToAllV — the DIMD shuffle's
// collective — over a ranks-sized communicator: every send posted up front
// in shift order (Comm.Send returns once the transport has buffered the
// message, so they are non-blocking posts), then the receives drained in
// shift order. size(src, dst) is the payload in bytes src holds for dst;
// zero-byte payloads still travel as messages, as they do live. The
// self-destined payload is a local copy and never a wire op.
func AllToAllVSchedule(ranks int, size func(src, dst int) int) []RankSchedule {
	scheds := make([]RankSchedule, ranks)
	for rank := range scheds {
		ops := make([]WireOp, 0, 2*(ranks-1))
		for s := 1; s < ranks; s++ {
			dst, _, tag := mpi.AllToAllStep(rank, s, ranks)
			ops = append(ops, WireOp{Kind: WireIsend, Peer: dst, Tag: tag, Bytes: size(rank, dst)})
		}
		for s := 1; s < ranks; s++ {
			_, src, tag := mpi.AllToAllStep(rank, s, ranks)
			ops = append(ops, WireOp{Kind: WireRecv, Peer: src, Tag: tag, Bytes: size(src, rank)})
		}
		scheds[rank] = RankSchedule{ops}
	}
	return scheds
}

// bucketSpans is the bucketed pipeline's bucket layout — the split
// bucketedExchange submits and the schedule extraction replays: nb buckets
// of bf floats (default 16384), the last one possibly short.
func bucketSpans(elems, bucketFloats int) (nb, bf int) {
	bf = bucketFloats
	if bf <= 0 {
		bf = 16384
	}
	return (elems + bf - 1) / bf, bf
}

// ShardedReduceScatterSchedule extracts BucketedReduceScatter's wire
// schedule over the flat (non-hierarchical) exchange: each bucket's
// compressed payload is Isent only to the rank(s) whose shard overlaps the
// bucket, and every owner receives from all peers, waited in rank order by
// the reduce stage. bounds nil means the uniform layout. wireSize maps a
// bucket's element count to its exact codec payload bytes (see
// simevent.WireSizer — payload sizes are data-independent for every codec
// in the tree, which the cross-validation suite pins).
func ShardedReduceScatterSchedule(ranks, elems, bucketFloats int, bounds []int, wireSize func(int) int) []RankSchedule {
	if bounds == nil {
		bounds = UniformBounds(elems, ranks)
	}
	scheds := make([]RankSchedule, ranks)
	nb, bf := bucketSpans(elems, bucketFloats)
	for rank := 0; rank < ranks; rank++ {
		var launch, main []WireOp
		for b := 0; b < nb; b++ {
			lo := b * bf
			hi := min(lo+bf, elems)
			pb := wireSize(hi - lo)
			tag := tagCompressed + b%compressedTagSpan
			for r := 0; r < ranks; r++ {
				if r != rank && shardOwns(bounds, r, lo, hi) {
					launch = append(launch, WireOp{Kind: WireIsend, Peer: r, Tag: tag, Bytes: pb})
				}
			}
			if shardOwns(bounds, rank, lo, hi) {
				for r := 0; r < ranks; r++ {
					if r != rank {
						main = append(main, WireOp{Kind: WireRecv, Peer: r, Tag: tag, Bytes: pb, Fold: true})
					}
				}
			}
		}
		scheds[rank] = RankSchedule{launch, main}
	}
	return scheds
}

// HierarchicalSchedule extracts the hierarchical Stream's allreduce-mode
// wire schedule over a validated topology: members Isend each bucket's
// compressed payload up to their node leader; leaders fold the previous
// node's raw partial and their members' payloads, forward the partial along
// the leader chain, and the final leader fans the completed sum back down
// to the other leaders and its members, with leaders relaying to theirs.
// Chain partials and down messages are raw float32 (exact round trips);
// only the up leg is codec-compressed — exactly the live routing.
func HierarchicalSchedule(topo mpi.Topology, elems, bucketFloats int, wireSize func(int) int) ([]RankSchedule, error) {
	ranks := len(topo.Node)
	if err := topo.Validate(ranks); err != nil {
		return nil, fmt.Errorf("allreduce: hierarchical schedule: %w", err)
	}
	scheds := make([]RankSchedule, ranks)
	nb, bf := bucketSpans(elems, bucketFloats)
	for rank := 0; rank < ranks; rank++ {
		h := newHierPlan(&topo, rank)
		var launch, main []WireOp
		for b := 0; b < nb; b++ {
			lo := b * bf
			hi := min(lo+bf, elems)
			raw := 4 * (hi - lo)
			t := b % hierTagSpan
			down := hierDownSrc(h, rank, true, false)
			if !h.isLeader {
				launch = append(launch, WireOp{Kind: WireIsend, Peer: h.leader, Tag: tagHierUp + t, Bytes: wireSize(hi - lo)})
				if down >= 0 {
					main = append(main, WireOp{Kind: WireRecv, Peer: down, Tag: tagHierDown + t, Bytes: raw})
				}
				continue
			}
			if h.prevLeader >= 0 {
				main = append(main, WireOp{Kind: WireRecv, Peer: h.prevLeader, Tag: tagHierChain + t, Bytes: raw})
			}
			for _, m := range h.members {
				main = append(main, WireOp{Kind: WireRecv, Peer: m, Tag: tagHierUp + t, Bytes: wireSize(hi - lo), Fold: true})
			}
			if h.nextLeader >= 0 {
				main = append(main, WireOp{Kind: WireSend, Peer: h.nextLeader, Tag: tagHierChain + t, Bytes: raw})
				if down >= 0 {
					main = append(main, WireOp{Kind: WireRecv, Peer: down, Tag: tagHierDown + t, Bytes: raw})
					for _, m := range h.members {
						main = append(main, WireOp{Kind: WireSend, Peer: m, Tag: tagHierDown + t, Bytes: raw})
					}
				}
			} else {
				for _, l := range h.leaders {
					if l != rank {
						main = append(main, WireOp{Kind: WireSend, Peer: l, Tag: tagHierDown + t, Bytes: raw})
					}
				}
				for _, m := range h.members {
					main = append(main, WireOp{Kind: WireSend, Peer: m, Tag: tagHierDown + t, Bytes: raw})
				}
			}
		}
		scheds[rank] = RankSchedule{launch, main}
	}
	return scheds, nil
}
