// Package simevent is the repository's network simulator: a discrete-event
// engine that replays the wire schedules extracted from the live
// collectives (allreduce.BucketRingSchedule and friends) over a virtual
// clock, predicting step time, per-link-class traffic, and fabric load at
// scales the goroutine-per-rank worlds cannot reach — 64 nodes × 8 ranks
// sweeps take seconds instead of machines. The paper-figure model
// (internal/simcluster) and the forward-prediction sweep (benchtool sim)
// both run on it.
//
// A rank's schedule is any number of streams, each a program-order op list
// (allreduce.RankSchedule). The time model mirrors mpi's topology transport:
//
//   - an intra-node message delays Intra.Delay(bytes) with no serialization
//     (shared memory has no single bottleneck link);
//   - an inter-node message waits its turn in the sender's egress FIFO — one
//     NIC share per rank, the live transport's egress mutex — and, at the
//     head, pays Inter.Latency and then its bytes;
//   - without a Fabric those bytes drain at Inter.BytesPerSec, so the
//     transfer takes Inter.Delay(bytes), exactly what a live world sleeps;
//   - with a Fabric a rank has one egress FIFO per rail, and the transfers at
//     the heads of all FIFOs share the links of their FatTree.Route max-min
//     fairly, re-rated whenever one joins or drains: a congested link slows
//     the clock;
//   - a blocking send occupies its stream until the transfer is delivered, a
//     non-blocking send only until the next event;
//   - a receive blocks until the matching message is delivered, where
//     matching is the transport's rule: per-(source, tag) FIFO;
//   - SumRate and CopyRate charge per-byte host work on the stream — after a
//     folding receive, before a send;
//   - every completed operation additionally pays HostOverhead, the
//     calibrated per-message software cost (encode, matching, scheduling),
//     optionally jittered by a seeded per-rank RNG.
//
// Byte accounting never depends on rates, HostOverhead, jitter, or the seed:
// a schedule's traffic is a function of the schedule alone, which is what
// the determinism and cross-validation suites pin. The engine is
// single-threaded and breaks event-time ties by insertion order, so a run
// is a pure function of (schedules, Config) — byte-identical traces on
// every replay.
package simevent

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"repro/internal/allreduce"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// Config parameterizes one simulated collective step.
type Config struct {
	// Topo maps ranks onto nodes (mpi.Topology.Validate rules apply). The
	// rank count is len(Topo.Node).
	Topo mpi.Topology
	// Intra and Inter are the two link classes' profiles, the same values a
	// live mpi.NewTopologyWorld would be built with.
	Intra, Inter mpi.LinkProfile
	// HostOverhead is the per-operation software cost added to every
	// completed wire op — the calibrated residual between pure link delays
	// and measured wall time.
	HostOverhead time.Duration
	// JitterFrac spreads HostOverhead uniformly in ±JitterFrac around its
	// nominal value, per operation, from a per-rank RNG seeded by Seed.
	// Jitter perturbs timing only; byte totals are seed-independent.
	JitterFrac float64
	// Seed drives the jitter RNG. Two runs with equal Config (including
	// Seed) produce byte-identical traces and results.
	Seed uint64
	// SumRate and CopyRate are per-byte host costs in bytes/s, charged on
	// the stream that runs the op: a folding receive (WireOp.Fold) completes
	// Bytes/SumRate after its message arrives, and a send is posted
	// Bytes/CopyRate after its stream reaches it (a staging copy, a shuffle's
	// record packing). Zero is free.
	SumRate, CopyRate float64
	// Fabric, when non-nil, carries every inter-node message: node k is
	// fat-tree host k, a transfer shares the links of its FatTree.Route with
	// every other transfer crossing them, and its bandwidth comes from those
	// links alone (Inter still supplies the latency). Result.Links reports
	// each link's load.
	Fabric *simnet.FatTree
	// Record retains the full event trace in Result.Trace (the trace hash
	// is always computed).
	Record bool
}

// RankStats is one rank's simulated outcome.
type RankStats struct {
	// Finish is when the rank's last operation (on any stream) completed.
	Finish time.Duration `json:"finish_ns"`
	// SentBytes and RecvBytes are the rank's wire totals.
	SentBytes int64 `json:"sent_bytes"`
	RecvBytes int64 `json:"recv_bytes"`
}

// LinkUtil is one fabric link's share of the step (Config.Fabric set).
type LinkUtil struct {
	Link  int    `json:"link"`
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	// BusySeconds is the serialization time the link's own bandwidth implies
	// for its bytes; Utilization is that over the step's makespan. A link
	// cannot carry more than its bandwidth, so Utilization never exceeds 1;
	// near 1 the link is what bounds the step.
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
}

// TraceEvent is one executed wire operation (Config.Record).
type TraceEvent struct {
	At    time.Duration `json:"at_ns"`
	Rank  int           `json:"rank"`
	Kind  string        `json:"kind"`
	Peer  int           `json:"peer"`
	Tag   int           `json:"tag"`
	Bytes int           `json:"bytes"`
}

// Result is one simulated step.
type Result struct {
	// Makespan is the virtual time from step start to the last completion
	// or delivery — the predicted step communication time.
	Makespan time.Duration `json:"makespan_ns"`
	// Traffic is the per-link-class byte total, directly comparable to a
	// live world's mpi.World.Traffic.
	Traffic mpi.Traffic `json:"traffic"`
	// Messages is the number of wire messages sent.
	Messages int `json:"messages"`
	// PerRank has one entry per rank.
	PerRank []RankStats `json:"per_rank"`
	// Links lists every fabric link that carried traffic, ascending link id
	// (empty without Config.Fabric).
	Links []LinkUtil `json:"links,omitempty"`
	// TraceHash fingerprints the full event trace (operation tuples and
	// their virtual times, in execution order).
	TraceHash uint64 `json:"trace_hash"`
	// Trace is the full event trace when Config.Record is set.
	Trace []TraceEvent `json:"trace,omitempty"`
}

// stream is one program-order op list of one rank.
type stream struct {
	rank, idx int // idx is the stream's position in its rank's schedule
	ops       []allreduce.WireOp
	pc        int
}

// at names the stream's pending op for error messages.
func (st *stream) at() string {
	op := st.ops[st.pc]
	return fmt.Sprintf("rank %d stream %d op %d (%s peer %d tag %d, %d bytes)",
		st.rank, st.idx, st.pc, op.Kind, op.Peer, op.Tag, op.Bytes)
}

// msgKey identifies a FIFO message queue: the transport matches receives
// per (source, tag), and the engine additionally splits by destination.
type msgKey struct {
	src, dst, tag int
}

// arrival is one delivered, not yet received message.
type arrival struct {
	at    int64
	bytes int
}

// msgQueue is one (src, dst, tag) FIFO: delivered messages in send order,
// the count already consumed by receives, and the one stream blocked on it.
type msgQueue struct {
	arrivals []arrival
	taken    int
	waiter   *stream
}

// xfer is one message between its post and its delivery.
type xfer struct {
	src, dst, tag, bytes int
	sender               *stream // the blocking send to resume at delivery, if any
	egress               int     // index of the sender's egress FIFO; -1 within a node
	// route is the fabric links the transfer shares with others; empty within
	// a node and in a world without a Fabric, where the link profile alone
	// times the transfer.
	route []simnet.LinkID
	// A routed transfer is re-rated while it runs: rem bytes were left at
	// virtual time since, draining at rate bytes/s, to end at end.
	rate, rem  float64
	since, end int64
	slot       int // index in engine.active
}

// event is a scheduled stream continuation (st) or transfer step (x). seq
// breaks time ties in insertion order, making the engine's schedule total
// and deterministic.
type event struct {
	at  int64
	seq uint64
	st  *stream
	x   *xfer
}

// eventHeap orders events by (at, seq) under container/heap.
type eventHeap []event

func (h eventHeap) Len() int      { return len(h) }
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h eventHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h *eventHeap) Push(ev any) { *h = append(*h, ev.(event)) }
func (h *eventHeap) Pop() any {
	last := len(*h) - 1
	ev := (*h)[last]
	*h = (*h)[:last]
	return ev
}

const never = int64(math.MaxInt64)

type engine struct {
	cfg      Config
	node     []int // rank -> node
	first    []int // node -> its lowest rank
	rails    int
	heap     eventHeap
	seq      uint64
	now      int64
	inbox    map[msgKey]*msgQueue
	egress   [][]*xfer // per (rank, rail): the head is on the wire, the rest wait
	rng      []uint64
	perRank  []RankStats
	traffic  mpi.Traffic
	messages int
	maxT     int64
	hash     uint64
	trace    []TraceEvent
	linkB    []int64
	// Routed transfers past their latency, at most one per egress FIFO.
	// stale says their rates predate the last join or leave; next is the one
	// ending soonest under the current rates.
	active []*xfer
	stale  bool
	next   *xfer
	// share's scratch. Per link: unrated transfers crossing it, capacity not
	// yet handed out, and the equal split of one over the other.
	cnt         []int
	room, split []float64
	links       []simnet.LinkID
	todo        []*xfer
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// splitmix64 advances *s and returns the next draw — the standard SplitMix64
// generator, chosen for stateless seeding (any two seeds give independent
// streams).
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Run simulates one collective step described by scheds over cfg and
// returns the predicted outcome. scheds must have one entry per rank of
// cfg.Topo. A schedule the transport could not run is an error naming the
// rank, stream and op: a peer outside the world, a receive whose message is
// never sent (deadlock) or is sized differently from the send it matches,
// two streams of one rank waiting on the same (peer, tag) queue —
// impossible for the extracted collectives, possible for hand-built ones.
func Run(scheds []allreduce.RankSchedule, cfg Config) (*Result, error) {
	n := len(scheds)
	if err := cfg.Topo.Validate(n); err != nil {
		return nil, fmt.Errorf("simevent: %w", err)
	}
	if cfg.Fabric != nil && cfg.Topo.Nodes() > cfg.Fabric.Hosts {
		return nil, fmt.Errorf("simevent: topology has %d nodes but fabric only %d hosts", cfg.Topo.Nodes(), cfg.Fabric.Hosts)
	}
	e := &engine{
		cfg:     cfg,
		node:    cfg.Topo.Node,
		first:   cfg.Topo.NodeBounds(),
		rails:   1,
		inbox:   make(map[msgKey]*msgQueue),
		rng:     make([]uint64, n),
		perRank: make([]RankStats, n),
		hash:    fnvOffset,
	}
	for r := range e.rng {
		e.rng[r] = cfg.Seed ^ (uint64(r+1) * 0x9E3779B97F4A7C15)
	}
	if f := cfg.Fabric; f != nil {
		e.rails = f.Rails
		e.linkB = make([]int64, f.NumLinks())
		e.cnt = make([]int, f.NumLinks())
		e.room = make([]float64, f.NumLinks())
		e.split = make([]float64, f.NumLinks())
	}
	e.egress = make([][]*xfer, n*e.rails)

	var streams []*stream
	for r, sc := range scheds {
		for i, ops := range sc {
			for pc, op := range ops {
				if op.Peer < 0 || op.Peer >= n || op.Bytes < 0 {
					st := &stream{rank: r, idx: i, ops: ops, pc: pc}
					return nil, fmt.Errorf("simevent: %s: peer outside %d ranks or negative size", st.at(), n)
				}
			}
			if len(ops) > 0 {
				st := &stream{rank: r, idx: i, ops: ops}
				streams = append(streams, st)
				e.resume(st, 0)
			}
		}
	}

	for {
		// The next thing to happen is the earlier of the heap's top and the
		// first routed transfer to drain (the heap wins ties). Rates are only
		// brought up to date when the clock is about to move, so everything
		// that joins or leaves the links at one instant costs one re-rating.
		at := never
		if len(e.heap) > 0 {
			at = e.heap[0].at
		}
		routed := e.next != nil && e.next.end < at
		if routed {
			at = e.next.end
		}
		if e.stale && at > e.now {
			e.share()
			continue
		}
		if at == never {
			break
		}
		e.now = at
		if routed {
			e.leave(e.next)
			continue
		}
		switch ev := heap.Pop(&e.heap).(event); {
		case ev.st != nil:
			if err := e.exec(ev.st); err != nil {
				return nil, err
			}
		case len(ev.x.route) > 0:
			e.join(ev.x)
		default:
			e.deliver(ev.x)
		}
	}
	for _, st := range streams {
		if st.pc < len(st.ops) {
			return nil, fmt.Errorf("simevent: deadlock: %s — no matching message", st.at())
		}
	}

	res := &Result{
		Makespan:  time.Duration(e.maxT),
		Traffic:   e.traffic,
		Messages:  e.messages,
		PerRank:   e.perRank,
		TraceHash: e.hash,
		Trace:     e.trace,
	}
	for l, b := range e.linkB {
		if b == 0 {
			continue
		}
		u := LinkUtil{Link: l, Name: cfg.Fabric.LinkName(simnet.LinkID(l)), Bytes: b,
			BusySeconds: float64(b) / cfg.Fabric.Bandwidth(simnet.LinkID(l))}
		if res.Makespan > 0 {
			u.Utilization = u.BusySeconds / res.Makespan.Seconds()
		}
		res.Links = append(res.Links, u)
	}
	return res, nil
}

func (e *engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.heap, ev)
}

// perByte is the virtual time n bytes take at rate bytes/s; a zero rate is
// free (an unset host cost).
func perByte(n, rate float64) int64 {
	if rate <= 0 {
		return 0
	}
	return int64(n / rate * float64(time.Second))
}

// resume schedules st's pending op for when the stream reaches it at
// virtual time at; a send first costs the host its staging copy.
func (e *engine) resume(st *stream, at int64) {
	if op := st.ops[st.pc]; op.Kind != allreduce.WireRecv {
		at += perByte(float64(op.Bytes), e.cfg.CopyRate)
	}
	e.push(event{at: at, st: st})
}

// exec runs the stream's current op at e.now.
func (e *engine) exec(st *stream) error {
	op := st.ops[st.pc]
	if op.Kind != allreduce.WireRecv {
		e.post(st, op)
		if op.Kind == allreduce.WireIsend {
			e.complete(st, e.now)
		}
		return nil
	}
	q := e.queue(op.Peer, st.rank, op.Tag)
	if q.taken == len(q.arrivals) {
		// Which of two waiters a message wakes would be the engine's choice,
		// not the transport's.
		if q.waiter != nil && q.waiter != st {
			return fmt.Errorf("simevent: %s and stream %d of the same rank wait on one (peer, tag) queue", st.at(), q.waiter.idx)
		}
		q.waiter = st // deliver re-runs the op when the message lands
		return nil
	}
	a := q.arrivals[q.taken]
	q.taken++
	if a.bytes != op.Bytes {
		return fmt.Errorf("simevent: %s matches a %d-byte send", st.at(), a.bytes)
	}
	done := max(e.now, a.at)
	if op.Fold {
		done += perByte(float64(op.Bytes), e.cfg.SumRate)
	}
	e.perRank[st.rank].RecvBytes += int64(op.Bytes)
	e.record(st.rank, op, done)
	e.complete(st, done)
	return nil
}

// complete finishes the stream's current op at virtual time at, charges
// the host overhead, and schedules the next op.
func (e *engine) complete(st *stream, at int64) {
	at += e.overhead(st.rank)
	e.maxT = max(e.maxT, at)
	e.perRank[st.rank].Finish = max(e.perRank[st.rank].Finish, time.Duration(at))
	st.pc++
	if st.pc < len(st.ops) {
		e.resume(st, at)
	}
}

// overhead draws the (possibly jittered) per-op host cost for a rank.
func (e *engine) overhead(rank int) int64 {
	h := int64(e.cfg.HostOverhead)
	if h <= 0 {
		return 0
	}
	if e.cfg.JitterFrac <= 0 {
		return h
	}
	u := float64(splitmix64(&e.rng[rank])>>11) / (1 << 53) // [0, 1)
	return int64(float64(h) * (1 + e.cfg.JitterFrac*(2*u-1)))
}

// post puts st's send on the wire at e.now. Mirrors memTransport.charge:
// intra-node messages start at once and delay concurrently; inter-node
// messages queue on the sender's egress — one FIFO per rank, and with a
// Fabric one per rail the rank drives, stream i of a node's j-th rank
// riding rail (i+j) mod Rails.
func (e *engine) post(st *stream, op allreduce.WireOp) {
	x := &xfer{src: st.rank, dst: op.Peer, tag: op.Tag, bytes: op.Bytes, egress: -1}
	if op.Kind == allreduce.WireSend {
		x.sender = st
	}
	e.messages++
	e.perRank[st.rank].SentBytes += int64(op.Bytes)
	e.record(st.rank, op, e.now)
	src, dst := e.node[x.src], e.node[x.dst]
	if src == dst {
		e.traffic.IntraBytes += int64(op.Bytes)
		e.start(x)
		return
	}
	e.traffic.InterBytes += int64(op.Bytes)
	rail := 0
	if f := e.cfg.Fabric; f != nil {
		rail = (x.src - e.first[src] + st.idx) % f.Rails
		x.route, _ = f.Route(src, dst, rail) // hosts were bounds-checked in Run
	}
	x.egress = x.src*e.rails + rail
	e.egress[x.egress] = append(e.egress[x.egress], x)
	if len(e.egress[x.egress]) == 1 {
		e.start(x)
	}
}

// start begins x's transfer at e.now. A routed transfer joins its links
// once its latency has passed; any other is delivered after exactly the
// delay a live world sleeps.
func (e *engine) start(x *xfer) {
	link := e.cfg.Inter
	if x.egress < 0 {
		link = e.cfg.Intra
	}
	d := link.Latency
	if len(x.route) == 0 {
		d = link.Delay(x.bytes)
	}
	e.push(event{at: e.now + int64(d), x: x})
}

// join puts x on its route's links; share rates it before the clock moves.
func (e *engine) join(x *xfer) {
	for _, l := range x.route {
		e.linkB[l] += int64(x.bytes)
	}
	x.rem, x.since, x.end = float64(x.bytes), e.now, never
	x.slot = len(e.active)
	e.active = append(e.active, x)
	e.stale = true
}

// leave takes the drained x off its links and delivers it.
func (e *engine) leave(x *xfer) {
	last := len(e.active) - 1
	e.active[x.slot] = e.active[last]
	e.active[x.slot].slot = x.slot
	e.active = e.active[:last]
	e.stale = true
	e.soonest()
	e.deliver(x)
}

// soonest points next at the active transfer ending first.
func (e *engine) soonest() {
	e.next = nil
	for _, x := range e.active {
		if e.next == nil || x.end < e.next.end {
			e.next = x
		}
	}
}

// share re-rates the active transfers at e.now by progressive filling
// (max-min fairness): find the links whose equal split of what capacity is
// left is smallest, fix every transfer crossing one of them at that share,
// take those transfers' share out of every link they cross, and repeat with
// the rest. A transfer whose rate does not move keeps its end to the
// nanosecond.
func (e *engine) share() {
	e.stale = false
	links := e.links[:0] // links that unrated transfers still cross
	for _, x := range e.active {
		for _, l := range x.route {
			if e.cnt[l] == 0 {
				links = append(links, l)
				e.room[l] = e.cfg.Fabric.Bandwidth(l)
			}
			e.cnt[l]++
		}
	}
	todo := append(e.todo[:0], e.active...)
	for len(todo) > 0 {
		least := math.Inf(1)
		live := links[:0]
		for _, l := range links {
			if e.cnt[l] > 0 {
				live = append(live, l)
				e.split[l] = e.room[l] / float64(e.cnt[l])
				least = min(least, e.split[l])
			}
		}
		links = live
		lim := least * (1 + 1e-12) // splits tied up to rounding freeze together
		rest := todo[:0]
		for _, x := range todo {
			if !e.bottlenecked(x, lim) {
				rest = append(rest, x)
				continue
			}
			for _, l := range x.route {
				e.room[l] = max(0, e.room[l]-least)
				e.cnt[l]--
			}
			if least != x.rate {
				x.rem = max(0, x.rem-x.rate*float64(e.now-x.since)/float64(time.Second))
				x.rate, x.since = least, e.now
				x.end = e.now + perByte(x.rem, least)
			}
		}
		todo = rest
	}
	e.links, e.todo = links, todo
	e.soonest()
}

// bottlenecked reports whether x crosses a link whose split is within lim.
// (A link every transfer has left keeps an old split, but then no unrated
// transfer crosses it.)
func (e *engine) bottlenecked(x *xfer, lim float64) bool {
	for _, l := range x.route {
		if e.split[l] <= lim {
			return true
		}
	}
	return false
}

// deliver lands x at e.now: the message becomes receivable (waking a
// receiver blocked on it), a blocking sender resumes, and the sender's
// egress moves on to its next message.
func (e *engine) deliver(x *xfer) {
	e.maxT = max(e.maxT, e.now)
	q := e.queue(x.src, x.dst, x.tag)
	q.arrivals = append(q.arrivals, arrival{at: e.now, bytes: x.bytes})
	if w := q.waiter; w != nil {
		q.waiter = nil
		e.push(event{at: e.now, st: w})
	}
	if x.sender != nil {
		e.complete(x.sender, e.now)
	}
	if x.egress >= 0 {
		fifo := e.egress[x.egress][1:]
		e.egress[x.egress] = fifo
		if len(fifo) > 0 {
			e.start(fifo[0])
		}
	}
}

func (e *engine) queue(src, dst, tag int) *msgQueue {
	k := msgKey{src: src, dst: dst, tag: tag}
	q := e.inbox[k]
	if q == nil {
		q = &msgQueue{}
		e.inbox[k] = q
	}
	return q
}

// record folds one executed operation into the trace hash (FNV-1a over the
// op tuple and its virtual time) and, under Config.Record, the trace.
func (e *engine) record(rank int, op allreduce.WireOp, at int64) {
	h := e.hash
	for _, v := range [6]uint64{uint64(op.Kind), uint64(rank), uint64(op.Peer), uint64(op.Tag), uint64(op.Bytes), uint64(at)} {
		h ^= v
		h *= fnvPrime
	}
	e.hash = h
	if e.cfg.Record {
		e.trace = append(e.trace, TraceEvent{
			At: time.Duration(at), Rank: rank, Kind: op.Kind.String(),
			Peer: op.Peer, Tag: op.Tag, Bytes: op.Bytes,
		})
	}
}
