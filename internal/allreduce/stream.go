package allreduce

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/compress"
	"repro/internal/kernels"
	"repro/internal/mpi"
)

// StreamOptions tunes a Stream.
type StreamOptions struct {
	// MaxInFlight caps the number of buckets simultaneously in the
	// compress/exchange/reduce pipeline (default 8). Submissions beyond the
	// cap block until earlier buckets complete, bounding memory and keeping
	// the reserved tag band collision-free.
	MaxInFlight int
	// SelfDecoded, when non-nil, receives the decode of this rank's own
	// payloads at [Lo:Hi) of each bucket — the values the wire actually
	// carried — which error feedback needs to compute its residual. It must
	// be long enough to index every submitted bucket's range. It is filled
	// for every submitted bucket even in reduce-scatter mode, where this
	// rank may not own (and so never sums) the bucket.
	SelfDecoded []float32
	// ShardBounds, when non-nil, switches the stream from allreduce to
	// reduce-scatter: entry r of the length Size+1, nondecreasing,
	// full-vector-covering slice is the start of rank r's owned element
	// range [ShardBounds[r], ShardBounds[r+1]). Each bucket's compressed
	// payload is sent only to the rank(s) whose shard overlaps the bucket,
	// and only those owners decode and reduce it — in rank order, so an
	// owner's Sum is bitwise identical to the full-exchange sum of the same
	// bucket. Buckets this rank does not own surface on Results with a nil
	// Sum once their sends complete.
	ShardBounds []int
	// Topology, when non-nil and set, routes every bucket hierarchically
	// instead of all-to-all: members send their compressed payload only to
	// their node's leader (cheap intra-node link), leaders fold node
	// partials along a chain in node order (one full-width message per
	// inter-node hop), and the final leader distributes the result back
	// down — so slow-link traffic drops from (size-1) payloads per rank
	// per bucket to O(nodes) messages per bucket in total.
	//
	// Bitwise contract: nodes are contiguous rank blocks (Topology.Validate
	// enforces it), each leader folds the previous nodes' partial first and
	// then its node's decoded payloads in rank order, and the partial/final
	// messages are exact float32 round trips — so the chain reproduces the
	// flat mode's rank-order left fold bit for bit. This is deliberately
	// NOT the textbook reduce-scatter + leader-allreduce + allgather
	// composition: that scheme re-associates the sum ((d0+d1)+(d2+d3)
	// instead of ((d0+d1)+d2)+d3) and would break the bitwise-equivalence
	// invariant that gates every schedule in this repository.
	//
	// Composes with ShardBounds: the chain still runs through every node
	// (the fold needs all contributions in rank order), but the final
	// leader then sends the sum only to the bucket's shard owners instead
	// of broadcasting it.
	Topology *mpi.Topology
}

// BucketResult is one completed bucket: the sum of every rank's decoded
// payload over the flattened-gradient range [Lo, Hi).
type BucketResult struct {
	Idx    int
	Lo, Hi int
	// Sum is the reduced bucket (length Hi-Lo), accumulated in rank order —
	// bitwise identical on every rank. The buffer is pooled: consume it and
	// call Release so the next step reuses it (dropping it is safe but
	// reintroduces the allocation). In reduce-scatter mode Sum is nil on
	// ranks whose shard does not overlap the bucket (the result then only
	// reports that the bucket's sends completed).
	Sum []float32
	// Err reports a failure for this bucket; Sum is nil when set.
	Err error
}

// Release returns Sum to the shared buffer pool. The caller must be done
// with the slice; calling Release twice or on a zero result is harmless.
func (r *BucketResult) Release() {
	mpi.PutFloats(r.Sum)
	r.Sum = nil
}

// streamSub is one submitted bucket awaiting launch.
type streamSub struct {
	idx    int
	lo, hi int
	data   []float32
}

// Stream is the asynchronous front-end over the bucketed compressed
// exchange: buckets are submitted one at a time — typically as backward
// compute finalizes their gradients — and each immediately enters the
// three-stage compress / exchange (Isend, then Recv where the fold needs the
// message) / decode+reduce pipeline
// while the caller keeps computing. Completed buckets surface on Results in
// launch order.
//
// Ordering contract: every rank must submit the same bucket sequence in the
// same order (the same discipline MPI imposes on collectives, and the reason
// DDP-style implementations fix their bucket launch order). With a bounded
// in-flight window, ranks launching in different orders can deadlock: each
// rank's window waits on buckets its peers have not launched because their
// windows are full of buckets this rank has not launched. Callers with
// timing-dependent readiness (the reactive gradient pipeline) must serialize
// ready buckets into an agreed order before submitting; any agreed order is
// correct — matching is by bucket tag — and the reduction is bitwise
// identical to the phased BucketedAllReduce, itself a thin wrapper over
// Stream.
//
// Usage contract: one live Stream per communicator, opened once and used for
// any number of rounds — a training step is one. A round is the buckets
// Submitted between two EndRound calls; its results surface on Results
// followed by one result with Idx RoundEnd, after which Stats holds the
// round's counters. The consumer must drain Results; Submit, EndRound and
// Close come from one goroutine, and Close only between rounds. The data
// slice passed to Submit is read at compress time and must stay unmodified
// until the bucket's result arrives.
//
// Buffer discipline (the zero-allocation path): payloads are compressed into
// pooled scratch released after the sends complete; received payloads are
// pooled transport buffers released after decode; Sum buffers are pooled and
// released by the consumer via BucketResult.Release; each bucket's send
// requests sit in one of MaxInFlight windows of a table allocated once
// (sendWindow). The goroutines, channels and tables live until Close, so
// steady state allocates nothing per bucket or per round.
type Stream struct {
	c       *mpi.Comm
	codec   compress.Codec
	opts    StreamOptions
	hier    *hierPlan // non-nil in hierarchical mode (Topology set)
	subs    chan streamSub
	results chan BucketResult
	slots   chan struct{}
	// sendRing is MaxInFlight windows of Size send requests and launched the
	// number of buckets given one so far: see sendWindow.
	sendRing []*mpi.Request
	launched int
	done     chan struct{}
	// stats and err accumulate the open round on the reduce goroutine;
	// round and roundErr are the last finished round's, published before its
	// RoundEnd result is sent.
	stats, round  CompressedStats
	err, roundErr error
}

// RoundEnd is the Idx of the result that closes a round: every bucket
// submitted before the matching EndRound has surfaced ahead of it.
const RoundEnd = -1

// hierPlan is this rank's precomputed role in the hierarchical exchange.
type hierPlan struct {
	leader      int   // this node's leader (its lowest rank)
	isLeader    bool  // this rank IS its node's leader
	members     []int // leader only: the node's other ranks, ascending
	prevLeader  int   // leader of node-1 (-1 on node 0)
	nextLeader  int   // leader of node+1 (-1 on the last node)
	finalLeader int   // leader of the last node: computes the global fold
	leaders     []int // every node's leader, in node order
}

// newHierPlan derives a rank's hierarchical role from a validated topology.
func newHierPlan(t *mpi.Topology, rank int) *hierPlan {
	bounds := t.NodeBounds()
	leaders := t.Leaders()
	nodes := t.Nodes()
	node := t.NodeOf(rank)
	h := &hierPlan{
		leader:      leaders[node],
		isLeader:    leaders[node] == rank,
		prevLeader:  -1,
		nextLeader:  -1,
		finalLeader: leaders[nodes-1],
		leaders:     leaders,
	}
	if node > 0 {
		h.prevLeader = leaders[node-1]
	}
	if node < nodes-1 {
		h.nextLeader = leaders[node+1]
	}
	if h.isLeader {
		for r := bounds[node] + 1; r < bounds[node+1]; r++ {
			h.members = append(h.members, r)
		}
	}
	return h
}

// NewStream starts the pipeline goroutines over c with the given codec; they
// run until Close.
func NewStream(c *mpi.Comm, codec compress.Codec, opts StreamOptions) *Stream {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 8
	}
	// The tag band cycles mod compressedTagSpan; keeping fewer buckets in
	// flight than the span means two live buckets can never alias a tag.
	if opts.MaxInFlight >= compressedTagSpan {
		opts.MaxInFlight = compressedTagSpan - 1
	}
	if sb := opts.ShardBounds; sb != nil {
		// The Stream never sees the vector, so the layout's own end stands
		// in for its length; Submit holds every bucket to it.
		if err := checkBounds(c, sb, sb[len(sb)-1]); err != nil {
			panic(fmt.Sprintf("allreduce: Stream ShardBounds: %v", err))
		}
	}
	var hier *hierPlan
	if opts.Topology != nil && opts.Topology.IsSet() {
		if err := opts.Topology.Validate(c.Size()); err != nil {
			panic(fmt.Sprintf("allreduce: Stream topology: %v", err))
		}
		hier = newHierPlan(opts.Topology, c.Rank())
		if opts.MaxInFlight >= hierTagSpan {
			opts.MaxInFlight = hierTagSpan - 1
		}
	}
	s := &Stream{
		c:        c,
		codec:    codec,
		opts:     opts,
		hier:     hier,
		subs:     make(chan streamSub),
		results:  make(chan BucketResult, opts.MaxInFlight),
		slots:    make(chan struct{}, opts.MaxInFlight),
		sendRing: make([]*mpi.Request, opts.MaxInFlight*c.Size()),
		done:     make(chan struct{}),
	}
	inflight := make(chan bucketJob, opts.MaxInFlight)
	go s.launch(inflight)
	go s.reduce(inflight)
	return s
}

// Submit hands the bucket covering flattened range [lo, hi) to the pipeline.
// idx is the bucket's stable identifier (its tag), which every rank must use
// for the same range. Blocks while MaxInFlight buckets are already underway.
func (s *Stream) Submit(idx, lo, hi int, data []float32) {
	if hi-lo != len(data) {
		panic(fmt.Sprintf("allreduce: Stream.Submit bucket %d range [%d,%d) but %d floats", idx, lo, hi, len(data)))
	}
	if sb := s.opts.ShardBounds; sb != nil && hi > sb[len(sb)-1] {
		panic(fmt.Sprintf("allreduce: Stream.Submit bucket %d range [%d,%d) beyond shard layout end %d (elements above it would never be reduced)",
			idx, lo, hi, sb[len(sb)-1]))
	}
	s.subs <- streamSub{idx: idx, lo: lo, hi: hi, data: data}
}

// shardOwns reports whether rank r's shard overlaps the bucket [lo, hi).
// Empty shards own nothing — without the sb[r] < sb[r+1] guard a degenerate
// boundary point strictly inside a bucket would mark the rank an owner,
// making every peer ship it payloads for zero owned elements.
func shardOwns(sb []int, r, lo, hi int) bool {
	return sb[r] < sb[r+1] && sb[r] < hi && sb[r+1] > lo
}

// EndRound declares the round's last bucket submitted: once every bucket
// before it has surfaced, Results yields the RoundEnd result.
func (s *Stream) EndRound() { s.subs <- streamSub{idx: RoundEnd} }

// Close stops the pipeline and returns once its goroutines have finished;
// Results is closed. It is called between rounds, after the last RoundEnd.
func (s *Stream) Close() {
	close(s.subs)
	<-s.done
}

// Results returns the completed-bucket channel, closed by Close. The
// consumer must drain it.
func (s *Stream) Results() <-chan BucketResult { return s.results }

// InFlight reports how many buckets currently occupy the pipeline.
func (s *Stream) InFlight() int { return len(s.slots) }

// Stats returns the last finished round's traffic counters and first error.
// Valid once that round's RoundEnd result has been received, until the next
// round ends.
func (s *Stream) Stats() (CompressedStats, error) { return s.round, s.roundErr }

// Exchange runs one round over the whole of data — the phased front of the
// Stream: the buckets of bucketFloats elements (16384 when ≤ 0) are
// submitted in ascending order, and each sum this rank receives is copied
// back over its range as it lands; ranges of reduce-scatter buckets this rank
// does not own are left as they were. It returns the round's Stats. The
// caller's goroutine both submits and drains, so the round needs no other.
func (s *Stream) Exchange(data []float32, bucketFloats int) (CompressedStats, error) {
	nb, bf := bucketSpans(len(data), bucketFloats)
	for b := 0; ; {
		var subs chan<- streamSub // nil once the RoundEnd marker is in
		next := streamSub{idx: RoundEnd}
		if b <= nb {
			subs = s.subs
		}
		if b < nb {
			lo, hi := b*bf, min(b*bf+bf, len(data))
			next = streamSub{idx: b, lo: lo, hi: hi, data: data[lo:hi]}
		}
		select {
		case subs <- next:
			b++
		case res := <-s.results:
			if res.Idx == RoundEnd {
				return s.Stats()
			}
			if res.Err == nil && res.Sum != nil {
				copy(data[res.Lo:res.Hi], res.Sum)
			}
			res.Release()
		}
	}
}

// launch is stage 1+2: for each submitted bucket, in submission order, take
// an in-flight slot, compress the bucket into pooled scratch with one serial
// AppendCompress, and start its payload sends. Whom a bucket's payload goes
// to is the routing's business (post); everything else here is
// routing-blind. A round's end passes through to reduce without a slot.
func (s *Stream) launch(inflight chan<- bucketJob) {
	sb := s.opts.ShardBounds
	for sub := range s.subs {
		if sub.idx == RoundEnd {
			inflight <- bucketJob{idx: RoundEnd}
			continue
		}
		s.slots <- struct{}{}
		job := bucketJob{
			idx: sub.idx, lo: sub.lo, hi: sub.hi,
			owned:    sb == nil || shardOwns(sb, s.c.Rank(), sub.lo, sub.hi),
			sendReqs: s.sendWindow(),
		}
		scratch := mpi.GetBytes(s.codec.MaxCompressedSize(len(sub.data)))
		job.payload = s.codec.AppendCompress(scratch[:0], sub.data)
		s.post(&job)
		inflight <- job
	}
	close(inflight)
}

// post starts one bucket's payload sends. Flat routing: to every peer that
// owns the bucket — every peer, in allreduce mode. Hierarchical routing: a
// member's to its node's leader; a leader's own payload never hits the wire,
// and its chain and down sends happen in the reduce stage (the partial does
// not exist before the fold). Nothing is posted for the receives: the fold
// calls Recv where it needs each message, on the peers the same routing
// names (foldRanks, recvSumInto).
func (s *Stream) post(job *bucketJob) {
	if h := s.hier; h != nil {
		if !h.isLeader {
			job.sendReqs = append(job.sendReqs, s.c.Isend(h.leader, tagHierUp+job.idx%hierTagSpan, job.payload))
		}
		return
	}
	sb := s.opts.ShardBounds
	tag := tagCompressed + job.idx%compressedTagSpan
	for r := 0; r < s.c.Size(); r++ {
		if r != s.c.Rank() && (sb == nil || shardOwns(sb, r, job.lo, job.hi)) {
			job.sendReqs = append(job.sendReqs, s.c.Isend(r, tag, job.payload))
		}
	}
}

// sendWindow returns an empty send table for the next bucket: window
// launched mod MaxInFlight of sendRing. Launch alone calls it, a slot in
// hand; results surface in launch order and a bucket's slot is freed after
// its sends are drained, so the bucket that last used the window is done
// with it — the slot semaphore is the happens-before edge. A bucket sends to
// fewer than Size peers and the window's capacity is Size, so append never
// leaves it.
func (s *Stream) sendWindow() []*mpi.Request {
	n := s.c.Size()
	w := s.launched % s.opts.MaxInFlight * n
	s.launched++
	return s.sendRing[w : w : w+n]
}

// hierDownSrc returns the rank this rank receives a bucket's final sum from,
// or -1 when it computes the sum itself (the final leader) or never needs
// one (a reduce-scatter non-owner). In allreduce mode the final leader fans
// out to the other leaders and each leader relays to its members; in
// reduce-scatter mode (sharded) the final leader sends straight to each
// shard owner. Standalone so the schedule extraction (schedule.go) resolves
// down-message sources through the exact code the live exchange receives
// with.
func hierDownSrc(h *hierPlan, rank int, owned, sharded bool) int {
	if !owned || rank == h.finalLeader {
		return -1
	}
	if sharded || h.isLeader {
		return h.finalLeader
	}
	return h.leader
}

// reduce is stage 3: fold the bucket the way its routing prescribes and emit
// the result. Runs on its own goroutine; it alone mutates stats, and it
// publishes them as the round's when the round's end arrives.
//
// Payloads fold straight into the bucket sum via Codec.DecompressAdd — no
// per-sender temp materialization or second memory pass. Every routing
// visits ranks in ascending order and performs the same per-element FP adds,
// so sums are bitwise identical across routings.
func (s *Stream) reduce(inflight <-chan bucketJob) {
	for job := range inflight {
		if job.idx == RoundEnd {
			s.round, s.roundErr = s.stats, s.err
			s.stats, s.err = CompressedStats{}, nil
			s.results <- BucketResult{Idx: RoundEnd}
			continue
		}
		var sum []float32
		var err error
		if s.hier != nil {
			sum, err = s.foldHier(&job)
		} else {
			sum, err = s.foldFlat(&job)
		}
		s.emit(job, sum, err)
	}
	close(s.results)
	close(s.done)
}

// foldFlat is the flat routing's fold: every rank's decoded payload, in rank
// order, into zeros. A reduce-scatter bucket this rank does not own is the
// same fold over this rank alone — no sum, and nobody sends it a payload —
// which leaves the own-payload decode (the SelfDecoded contract) and the send
// drain.
func (s *Stream) foldFlat(job *bucketJob) ([]float32, error) {
	var sum []float32
	lo, hi := s.c.Rank(), s.c.Rank()+1
	if job.owned {
		// Pooled, but zeroed: accumulating into exact +0 keeps the sum
		// bitwise identical to the historical make-per-bucket path.
		sum = mpi.GetFloatsZeroed(job.hi - job.lo)
		lo, hi = 0, s.c.Size()
	}
	var jobErr error
	s.foldRanks(job, sum, lo, hi, tagCompressed+job.idx%compressedTagSpan, &jobErr)
	s.drainSends(job, &jobErr)
	return sum, jobErr
}

// foldRanks adds the decoded payloads of ranks [lo, hi) into sum in rank
// order: this rank's own through decodeOwn, each peer's received under tag.
// Every peer in the range is received from and its buffer released even once
// the bucket has failed, so peers' sends drain.
func (s *Stream) foldRanks(job *bucketJob, sum []float32, lo, hi, tag int, jobErr *error) {
	for r := lo; r < hi; r++ {
		if r == s.c.Rank() {
			if *jobErr == nil {
				*jobErr = s.decodeOwn(job, sum)
			}
			continue
		}
		b, err := s.c.Recv(r, tag)
		if err != nil {
			if *jobErr == nil {
				*jobErr = err
			}
			continue
		}
		s.stats.BytesRecv += int64(len(b))
		if *jobErr == nil {
			if err := s.codec.DecompressAdd(sum, b); err != nil {
				*jobErr = fmt.Errorf("allreduce: bucket %d from rank %d: %w", job.idx, r, err)
			}
		}
		mpi.PutBytes(b)
	}
}

// decodeOwn decodes this rank's own payload: into SelfDecoded when error
// feedback wants the values the wire carried, and into sum when this rank
// folds the bucket (sum is nil on a hierarchical member and on a
// reduce-scatter non-owner, which owe only the SelfDecoded contract).
func (s *Stream) decodeOwn(job *bucketJob, sum []float32) error {
	var err error
	if s.opts.SelfDecoded == nil {
		if sum != nil {
			err = s.codec.DecompressAdd(sum, job.payload)
		}
	} else {
		// Error feedback needs the full decode anyway: produce it in place,
		// then fold it like any other sender.
		self := s.opts.SelfDecoded[job.lo:job.hi]
		if err = s.codec.Decompress(self, job.payload); err == nil && sum != nil {
			kernels.AddInto(sum, self)
		}
	}
	if err != nil {
		return fmt.Errorf("allreduce: bucket %d self decode: %w", job.idx, err)
	}
	return nil
}

// drainSends waits out the bucket's payload sends, accounts them, and
// returns the payload scratch to the pool — the sends have completed, so the
// buffer is quiescent. A hierarchical leader has no sends (its own payload
// never hits the wire); for it this is just the release.
func (s *Stream) drainSends(job *bucketJob, jobErr *error) {
	if err := mpi.WaitAll(job.sendReqs...); err != nil && *jobErr == nil {
		*jobErr = err
	}
	if *jobErr == nil {
		sends := int64(len(job.sendReqs))
		s.stats.BytesSent += int64(len(job.payload)) * sends
		s.stats.RawBytes += int64(4*(job.hi-job.lo)) * sends
	}
	mpi.PutBytes(job.payload)
}

// foldHier is the hierarchical routing's fold (StreamOptions.Topology).
// Members have nothing to reduce — their payload went up to the node leader
// at launch; leaders fold the previous nodes' chain partial and then their
// node's decoded payloads in rank order, forward the partial to the next
// leader, and the final leader distributes the completed rank-order fold
// back down. Every value a rank emits as Sum is therefore bit for bit the
// flat routing's sum of all decoded payloads in rank order.
func (s *Stream) foldHier(job *bucketJob) ([]float32, error) {
	h := s.hier
	width := job.hi - job.lo
	t := job.idx % hierTagSpan
	// down is whom this rank gets the bucket's final sum from, -1 for nobody.
	down := hierDownSrc(h, s.c.Rank(), job.owned, s.opts.ShardBounds != nil)
	var jobErr error
	fail := func(err error) {
		if err != nil && jobErr == nil {
			jobErr = err
		}
	}

	if !h.isLeader {
		// Member: the only local work is the SelfDecoded contract and (when
		// owed one) receiving the final sum.
		fail(s.decodeOwn(job, nil))
		s.drainSends(job, &jobErr)
		return s.recvSumInto(nil, down, tagHierDown+t, width, &jobErr), jobErr
	}

	// Leader: start the fold from the previous nodes' partial — node 0 (no
	// previous leader) starts from exact zeros, like the flat fold, and so does
	// a failed chain receive, to keep going so peers drain — then add this
	// node's decoded payloads in rank order: the leader's own first (it is
	// the node's lowest rank), then each member's.
	sum := s.recvSumInto(nil, h.prevLeader, tagHierChain+t, width, &jobErr)
	if sum == nil {
		sum = mpi.GetFloatsZeroed(width)
	}
	s.foldRanks(job, sum, s.c.Rank(), s.c.Rank()+1+len(h.members), tagHierUp+t, &jobErr)
	s.drainSends(job, &jobErr)

	// Forward and distribute. Sends happen even after a local error so
	// downstream ranks never block on a message that would otherwise never
	// arrive — but a failed fold travels as a poison message (forward), so
	// every downstream rank fails the bucket too instead of silently
	// adopting a partial sum. Rank-failure folds use the typed poison, which
	// keeps ErrRankDown visible on every survivor.
	if h.nextLeader >= 0 {
		fail(s.forward(h.nextLeader, tagHierChain+t, sum, jobErr))
		// Not the final node: the global sum comes back from the final
		// leader (always in allreduce mode; only for shard owners in
		// reduce-scatter mode), and allreduce-mode leaders relay it to
		// their members.
		if down >= 0 {
			if got := s.recvSumInto(sum, down, tagHierDown+t, width, &jobErr); got != nil {
				sum = got
			}
			if s.opts.ShardBounds == nil {
				for _, m := range h.members {
					fail(s.forward(m, tagHierDown+t, sum, jobErr))
				}
			}
		}
	} else {
		// Final leader: sum IS the completed global fold. Distribute it to
		// the other leaders and this node's members (allreduce mode) or
		// straight to the bucket's shard owners (reduce-scatter mode).
		if sb := s.opts.ShardBounds; sb == nil {
			for _, l := range h.leaders {
				if l != s.c.Rank() {
					fail(s.forward(l, tagHierDown+t, sum, jobErr))
				}
			}
			for _, m := range h.members {
				fail(s.forward(m, tagHierDown+t, sum, jobErr))
			}
		} else {
			for r := 0; r < s.c.Size(); r++ {
				if r != s.c.Rank() && shardOwns(sb, r, job.lo, job.hi) {
					fail(s.forward(r, tagHierDown+t, sum, jobErr))
				}
			}
		}
	}
	if !job.owned {
		// A leader folds every bucket but keeps only the ones it owns.
		mpi.PutFloats(sum)
		sum = nil
	}
	return sum, jobErr
}

// recvSumInto receives a raw float32 message (a chain partial or a final sum)
// from src, decodes it into reuse — allocated from the pool when nil — and
// releases the transport buffer. src < 0 (nobody sends this rank one) is a
// no-op; on failure the error lands in *jobErr and nil is returned.
func (s *Stream) recvSumInto(reuse []float32, src, tag, width int, jobErr *error) []float32 {
	if src < 0 {
		return nil
	}
	b, err := s.c.Recv(src, tag)
	if err != nil {
		if *jobErr == nil {
			*jobErr = err
		}
		return nil
	}
	s.stats.BytesRecv += int64(len(b))
	if len(b) != 4*width {
		err := poisonError(b, width, s.c.WorldSize())
		mpi.PutBytes(b)
		if *jobErr == nil {
			*jobErr = err
		}
		return nil
	}
	if reuse == nil {
		reuse = mpi.GetFloats(width)
	}
	mpi.DecodeFloat32s(reuse, b)
	mpi.PutBytes(b)
	return reuse
}

// sendRaw ships a raw float32 vector — exact bits, no codec — and accounts
// it on success (raw messages count 1:1 against RawBytes: they are
// uncompressed).
func (s *Stream) sendRaw(dst, tag int, data []float32) error {
	err := s.c.SendFloats(dst, tag, data)
	if err == nil {
		s.stats.BytesSent += int64(4 * len(data))
		s.stats.RawBytes += int64(4 * len(data))
	}
	return err
}

// Poison messages mark a failed upstream fold on the hierarchical chain.
// Two encodings, both distinguishable from real payloads by length (real
// partials are 4-byte-aligned and never zero for a non-empty bucket):
//
//	[]                       generic failure — fail the bucket downstream
//	[poisonRankDown rank:4]  a rank died — fail the bucket downstream AND
//	                         preserve the ErrRankDown typing plus the victim,
//	                         which the recovery layer needs to resize around.
//
// poisonLen is odd on purpose: a 5-byte message can never collide with a
// 4·width float payload.
const (
	poisonRankDown = 0xFD
	poisonLen      = 5
)

// errPoisoned is the cause recorded on a relayed rank failure: this rank
// learned of the death from an upstream poison message, not firsthand.
var errPoisoned = errors.New("allreduce: upstream fold poisoned by rank failure")

// poisonError decodes a non-payload (poison or malformed) chain message into
// the bucket error it represents. Only a rank of the world, [0, worldSize),
// is a typed rank failure: any other rank is a malformed poison, which must
// not become a RankDownError that names no rank the recovery layer can act on.
func poisonError(b []byte, width, worldSize int) error {
	switch {
	case len(b) == poisonLen && b[0] == poisonRankDown:
		r := binary.LittleEndian.Uint32(b[1:])
		if r >= uint32(worldSize) {
			return fmt.Errorf("allreduce: malformed poison names rank %d outside the %d-rank world", int32(r), worldSize)
		}
		return &mpi.RankDownError{Rank: int(r), Cause: errPoisoned}
	case len(b) == 0 && width > 0:
		return fmt.Errorf("allreduce: upstream rank failed this bucket")
	default:
		return fmt.Errorf("allreduce: hierarchical payload %d bytes, want %d", len(b), 4*width)
	}
}

// forward ships a chain partial or final sum downstream, or — when this
// rank's fold already failed — a poison message, so downstream ranks fail
// the bucket instead of silently folding a corrupt partial. A rank-failure
// fold error travels as typed poison carrying the dead rank; anything else
// as the generic zero-length poison.
func (s *Stream) forward(dst, tag int, sum []float32, jobErr error) error {
	if jobErr != nil {
		if r := mpi.DownRank(jobErr); r >= 0 {
			return s.sendPoison(dst, tag, r)
		}
		return s.sendRaw(dst, tag, nil)
	}
	return s.sendRaw(dst, tag, sum)
}

// sendPoison ships a typed rank-down poison message.
func (s *Stream) sendPoison(dst, tag, downRank int) error {
	b := mpi.GetBytes(poisonLen)
	b[0] = poisonRankDown
	binary.LittleEndian.PutUint32(b[1:], uint32(downRank))
	err := s.c.SendOwned(dst, tag, b)
	if err == nil {
		s.stats.BytesSent += poisonLen
		s.stats.RawBytes += poisonLen
	}
	return err
}

// emit finishes a bucket: account it, surface the result, free the in-flight
// slot. sum is nil for a bucket this rank does not own.
func (s *Stream) emit(job bucketJob, sum []float32, jobErr error) {
	s.stats.Buckets++
	res := BucketResult{Idx: job.idx, Lo: job.lo, Hi: job.hi}
	if jobErr != nil {
		if s.err == nil {
			s.err = jobErr
		}
		res.Err = jobErr
		mpi.PutFloats(sum)
	} else {
		res.Sum = sum
	}
	s.results <- res
	<-s.slots
}
