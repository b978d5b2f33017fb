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
// hierDownSrc — so a change to a collective's routing changes its extracted
// schedule in lockstep. The residual risk (an extractor missing a message
// class entirely) is pinned by the simevent cross-validation suite, which
// requires simulated per-link-class byte totals to EXACTLY equal the live
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
}

// RankSchedule is one rank's wire program, split the way the live Stream
// splits work across goroutines: Launch ops post asynchronously ahead of
// the fold (the compressed-payload Isends the launch goroutine issues),
// Main ops run in strict program order (the blocking receive/fold/forward
// sequence of the reduce goroutine, or the whole body of a phased
// collective). Phased collectives leave Launch empty.
type RankSchedule struct {
	Launch []WireOp
	Main   []WireOp
}

// Bytes returns the total bytes this rank's schedule sends.
func (r RankSchedule) Bytes() int64 {
	var n int64
	for _, op := range r.Launch {
		if op.Kind != WireRecv {
			n += int64(op.Bytes)
		}
	}
	for _, op := range r.Main {
		if op.Kind != WireRecv {
			n += int64(op.Bytes)
		}
	}
	return n
}

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
				WireOp{Kind: WireRecv, Peer: left, Tag: tagRScoll + s, Bytes: shardBytes(recvShard)})
		}
		for s := 0; s < ranks-1; s++ {
			sendShard, recvShard := agRingStep(rank, s)
			ops = append(ops,
				WireOp{Kind: WireSend, Peer: right, Tag: tagAGcoll + s, Bytes: shardBytes(sendShard)},
				WireOp{Kind: WireRecv, Peer: left, Tag: tagAGcoll + s, Bytes: shardBytes(recvShard)})
		}
		scheds[rank].Main = ops
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
			scheds[rank].Main = ops
			continue
		}
		if rank < extra {
			ops = append(ops, WireOp{Kind: WireRecv, Peer: rank + p2, Tag: tagRabFold, Bytes: full})
		}
		glo, ghi := 0, p2
		round := 0
		for half := p2 / 2; half >= 1; half /= 2 {
			st := halvingRound(rank, glo, ghi, half, bounds)
			glo, ghi = st.glo, st.ghi
			ops = append(ops,
				WireOp{Kind: WireSend, Peer: st.partner, Tag: tagRabRS + round, Bytes: 4 * (st.sendHi - st.sendLo)},
				WireOp{Kind: WireRecv, Peer: st.partner, Tag: tagRabRS + round, Bytes: 4 * (st.keepHi - st.keepLo)})
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
		scheds[rank].Main = ops
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
						main = append(main, WireOp{Kind: WireRecv, Peer: r, Tag: tag, Bytes: pb})
					}
				}
			}
		}
		scheds[rank] = RankSchedule{Launch: launch, Main: main}
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
				main = append(main, WireOp{Kind: WireRecv, Peer: m, Tag: tagHierUp + t, Bytes: wireSize(hi - lo)})
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
		scheds[rank] = RankSchedule{Launch: launch, Main: main}
	}
	return scheds, nil
}
