package mpi

import (
	"sync"
	"time"
)

// message is one mailbox entry: a payload and who owns it. The zero
// ownership is plain — the buffer travels with the message and whoever
// consumes it owns it (release: PutBytes). The other two exist only between
// ranks of an in-memory world that lends (memTransport.lends) and never reach
// a caller of Recv, which gets an owned copy:
//
//   - lent: data is a view of the SENDER's own memory (Comm.LendFloats). The
//     receiver reads it in place and releases nothing; it must never be put
//     in the pool, whatever its capacity.
//   - shared: data belongs to a refcounted buffer several receivers read
//     (Comm.SendFloatsAll); release drops one reference and the last one
//     recycles the buffer.
type message struct {
	data   []byte
	shared *sharedBuf
	lent   bool
}

// release gives up the consumer's claim on the payload, once per message.
func (m message) release() {
	switch {
	case m.lent:
	case m.shared != nil:
		m.shared.drop(1)
	default:
		PutBytes(m.data)
	}
}

// owned returns the payload as a buffer the caller owns — Recv's contract:
// a plain message's buffer itself, a pooled copy of a lent or shared one
// (which is then released).
func (m message) owned() []byte {
	if !m.lent && m.shared == nil {
		return m.data
	}
	b := GetBytes(len(m.data))
	copy(b, m.data)
	m.release()
	return b
}

// msgQueue is one (src, ctx, tag) FIFO. It is a sliding window over items:
// pop advances head, and when the queue drains the slice is reset to reuse
// its capacity — steady-state traffic on a recurring key never allocates.
// ready is the key's own condition, on the mailbox's one mutex: a put wakes
// a receiver of its key and nobody else.
type msgQueue struct {
	items []message
	head  int
	ready sync.Cond
}

func (q *msgQueue) push(m message) { q.items = append(q.items, m) }

func (q *msgQueue) pop() (message, bool) {
	if q.head == len(q.items) {
		return message{}, false
	}
	msg := q.items[q.head]
	q.items[q.head] = message{}
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return msg, true
}

// mailbox holds undelivered messages for one rank, matched by (src, ctx, tag).
// Queue entries persist after draining (keys recur across steps: collective
// tags cycle in fixed bands), keeping put/wait allocation-free in steady state.
// A put signals its key alone; a close or a down-marking wakes every key. The
// hand-off still runs under the one mutex, so a put happens-before its pop.
//
// The mailbox is also where failure detection meets message matching: a
// crashed owner refuses puts (sends to a dead rank fail with ErrRankDown),
// and a crashed source fails waits once its already-queued messages drain —
// in-flight data survives the crash, like frames already on a real wire.
type mailbox struct {
	mu        sync.Mutex
	queues    map[msgKey]*msgQueue
	closed    bool
	owner     int  // world rank owning this mailbox, for rank-down errors
	ownerDown bool // owner crashed: puts fail with ErrRankDown
	// down records source ranks marked dead; waits on them fail once their
	// queues drain. The value is the observation that marked them: nil means
	// CONFIRMED (a crash, a suspicion verdict), errDetectTimeout means
	// PRESUMED from silence — the returned RankDownError carries it as the
	// Cause, so recovery code can retry through presumptions while treating
	// confirmations as membership changes. A confirmation overwrites a
	// presumption, never the reverse.
	down map[int]error
}

func newMailbox(owner int) *mailbox {
	return &mailbox{queues: make(map[msgKey]*msgQueue), owner: owner}
}

// queue returns k's queue, creating it. Caller holds m.mu.
func (m *mailbox) queue(k msgKey) *msgQueue {
	q := m.queues[k]
	if q == nil {
		q = &msgQueue{}
		q.ready.L = &m.mu
		m.queues[k] = q
	}
	return q
}

// wakeAll wakes the waiters of every key. Caller holds m.mu.
func (m *mailbox) wakeAll() {
	for _, q := range m.queues {
		q.ready.Broadcast()
	}
}

func (m *mailbox) put(k msgKey, msg message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.ownerDown {
		return &RankDownError{Rank: m.owner}
	}
	q := m.queue(k)
	q.push(msg)
	q.ready.Signal()
	return nil
}

// wait is the one match-or-fail loop behind every receive of both transports.
// It pops the next message under k; failing that it fails with ErrClosed on a
// closed mailbox and with a RankDownError once a down-marked source's queue
// has drained; failing that it waits for a put, a marking or a close — unless
// block is false, when it reports ok false (ok is true for a message or an
// error: something final was available). d > 0 is a failure-detection
// deadline on the blocking wait: when no matching message arrives within d
// the source is presumed dead and a RankDownError says so. sync.Cond has no
// timed wait, so a timer broadcasts k's condition at the deadline to wake the
// waiter (the deadline is this waiter's own: no other key needs the wake-up).
func (m *mailbox) wait(k msgKey, block bool, d time.Duration) (msg message, ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queue(k)
	var deadline time.Time
	if block && d > 0 {
		deadline = time.Now().Add(d)
		timer := time.AfterFunc(d, func() {
			m.mu.Lock()
			q.ready.Broadcast()
			m.mu.Unlock()
		})
		defer timer.Stop()
	}
	for {
		if msg, found := q.pop(); found {
			return msg, true, nil
		}
		if m.closed {
			return message{}, true, ErrClosed
		}
		if err := m.downErr(k.src); err != nil {
			return message{}, true, err
		}
		if !block {
			return message{}, false, nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return message{}, true, &RankDownError{Rank: k.src, Cause: errDetectTimeout}
		}
		q.ready.Wait()
	}
}

// downErr builds the typed failure for a down-marked source, nil when the
// source is not marked. Caller holds m.mu.
func (m *mailbox) downErr(src int) error {
	cause, ok := m.down[src]
	if !ok {
		return nil
	}
	return &RankDownError{Rank: src, Cause: cause}
}

// markDown records a CONFIRMED failure of the given source rank — a crash or
// an explicit suspicion verdict; blocked waits matching it wake up and fail
// once their queues drain. Overwrites an earlier presumptive marking.
func (m *mailbox) markDown(rank int) {
	m.mu.Lock()
	if m.down == nil {
		m.down = make(map[int]error)
	}
	m.down[rank] = nil
	m.wakeAll()
	m.mu.Unlock()
}

// markDownCause records a PRESUMED failure (e.g. a detection timeout) of the
// given source rank: later receives fail fast but stay transient-typed, so a
// rank merely slow to respond is retried through rather than evicted. A
// confirmed marking already in place is never downgraded.
func (m *mailbox) markDownCause(rank int, cause error) {
	m.mu.Lock()
	if m.down == nil {
		m.down = make(map[int]error)
	}
	if _, ok := m.down[rank]; !ok {
		m.down[rank] = cause
	}
	m.wakeAll()
	m.mu.Unlock()
}

// confirmedDown reports whether the source rank has a CONFIRMED dead marking
// at this mailbox. Sends fail fast only on confirmation; a presumed-dead peer
// still gets send attempts (it may just be slow).
func (m *mailbox) confirmedDown(rank int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	cause, ok := m.down[rank]
	return ok && cause == nil
}

// markOwnerDown records that this mailbox's own rank crashed; subsequent puts
// (sends to it) fail with ErrRankDown.
func (m *mailbox) markOwnerDown() {
	m.mu.Lock()
	m.ownerDown = true
	m.wakeAll()
	m.mu.Unlock()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.wakeAll()
	m.mu.Unlock()
}

// World is an in-process cluster: n ranks connected by a shared-memory
// transport. Every experiment in this repository that needs "a cluster" runs
// one goroutine per rank against a World, which stands in for the paper's
// one-MPI-process-per-Minsky-node deployment.
type World struct {
	boxes []*mailbox
	// topo, when non-nil, splits links into intra-node and inter-node
	// classes with separate profiles and byte counters (see
	// NewTopologyWorld; NewLatencyWorld is its one-rank-per-node case).
	topo *topoNet
	// faults, when non-nil, has every communicator built afterwards crash,
	// drop, straggle and time out by its plan (see InjectFaults).
	faults *FaultInjector
	downMu sync.Mutex
	down   map[int]bool // ranks crashed via Crash
	out    outbox       // the Isends no transport completes inline
}

// NewWorld creates an in-process world with n ranks.
func NewWorld(n int) *World {
	w := &World{boxes: make([]*mailbox, n)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox(i)
	}
	return w
}

// Comm returns the world communicator for the given global rank. Each rank's
// goroutine must use its own Comm.
func (w *World) Comm(rank int) (*Comm, error) {
	return newComm(newMemTransport(w, rank, false), rank, worldGroup(len(w.boxes)), 1)
}

// worldGroup is the group of a world communicator: all n ranks, in order.
func worldGroup(n int) []int {
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	return group
}

// MustComm is Comm but panics on error; for tests and examples.
func (w *World) MustComm(rank int) *Comm {
	c, err := w.Comm(rank)
	if err != nil {
		panic(err)
	}
	return c
}

// controlCtx is the reserved communicator context for out-of-band control
// traffic (heartbeats). Application comms use ctx 1 and hashed Sub contexts,
// so control frames can never be mistaken for training messages.
const controlCtx uint64 = 0xC0

// ControlComm returns a communicator on the reserved control context that
// bypasses the fault injector's message drops, straggler delays, and
// detection timeouts — the out-of-band channel a failure detector itself
// runs over. Injected drops must not eat heartbeats, both because a real
// deployment would run its detector on a separate QoS class and because
// heartbeat sends ticking the injector's per-rank drop counters would make
// the seeded drop schedule depend on wall-clock heartbeat timing. Suspicion
// verdicts fed back through Suspect affect the whole mailbox, control
// traffic included.
func (w *World) ControlComm(rank int) (*Comm, error) {
	return newComm(newMemTransport(w, rank, true), rank, worldGroup(len(w.boxes)), controlCtx)
}

// Suspect records a LOCAL failure verdict: observer presumes rank dead, so
// observer's blocked and future receives from rank fail with a typed
// *RankDownError once rank's already-delivered messages drain. Unlike
// Crash, nothing happens world-wide — suspicion is one rank's opinion,
// which is exactly what a heartbeat monitor produces. A false suspicion is
// therefore contained: the suspected rank keeps running, and the membership
// protocol reconciles the disagreement at the next epoch.
func (w *World) Suspect(observer, rank int) {
	w.boxes[observer].markDown(rank)
}

// Close shuts the world down; blocked receivers return ErrClosed. It
// returns once the world's senders (Isend) have stopped.
func (w *World) Close() {
	for _, b := range w.boxes {
		b.close()
	}
	w.out.close()
}

// Run spawns fn on a goroutine per rank and waits for all to return,
// collecting the first non-nil error. It is the harness used throughout the
// tests and examples to stand up an in-process cluster.
func (w *World) Run(fn func(c *Comm) error) error {
	n := len(w.boxes)
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			c, err := w.Comm(rank)
			if err != nil {
				errs <- err
				return
			}
			errs <- fn(c)
		}(r)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// memTransport is the in-memory transport, one per (world, rank, plane): a
// send appends to the destination rank's mailbox — buffered, never blocking
// on the receiver — and a receive waits on this rank's own. What a
// send costs and whether it arrives is the world's business, fixed when the
// communicator is built: a world that holds a FaultInjector has its ranks
// crash, lose messages, straggle and time out by the plan, a world that holds
// a link model charges and counts every message, and the control plane
// (World.ControlComm) does neither. Copies come from the shared buffer pool,
// and SendOwned skips the copy entirely: the sender's pooled buffer itself
// travels to the receiver, which releases it.
type memTransport struct {
	world *World
	rank  int
	inj   *FaultInjector // nil: nothing fails (always nil on the control plane)
	net   *topoNet       // nil: links cost and count nothing (likewise)
	// lends: a message may carry a payload its receiver does not own — a view
	// of the sender's memory (LendFloats), a buffer shared with other
	// receivers (SendFloatsAll) — instead of a private copy. That takes this
	// host's float32 layout being the wire's and a world that holds no fault
	// injector: a rank that can fail on its own may error out of a collective
	// and rewrite memory a peer is still reading. The control communicator of
	// a fault-injected world skips the injector, not the rule.
	lends bool
	// inline: a send never occupies the caller — no straggler profile for
	// this rank, no link that costs time — so Isend completes on the spot.
	inline bool
	egress sync.Mutex // serializes this rank's inter-node sends (its NIC share)
}

func newMemTransport(w *World, rank int, control bool) *memTransport {
	t := &memTransport{world: w, rank: rank, lends: hostLittleEndian && w.faults == nil, inline: true}
	if control {
		return t
	}
	t.inj, t.net = w.faults, w.topo
	if t.inj != nil {
		_, slow := t.inj.plan.Slow[rank]
		t.inline = !slow
	}
	if t.net != nil && (t.net.intra != LinkProfile{} || t.net.inter != LinkProfile{}) {
		t.inline = false
	}
	return t
}

// Send implements Transport.
func (t *memTransport) Send(dst int, ctx uint64, tag int, data []byte) error {
	cp := GetBytes(len(data))
	copy(cp, data)
	return t.sendMsg(dst, ctx, tag, message{data: cp})
}

// SendOwned implements Transport: the buffer is delivered as-is (zero copy)
// and ownership passes through the mailbox to the receiver.
func (t *memTransport) SendOwned(dst int, ctx uint64, tag int, data []byte) error {
	return t.sendMsg(dst, ctx, tag, message{data: data})
}

// sendMsg is the one send path — copied, owned, lent and shared payloads all
// arrive here as a message, so they fail, straggle, pay and count alike: the
// sender's own crash, then the seeded drop (silent: lost on the wire), then
// this rank's straggler delay, then the link charge, then the put. m is
// released wherever it is not delivered.
func (t *memTransport) sendMsg(dst int, ctx uint64, tag int, m message) error {
	if f := t.inj; f != nil {
		if f.crashed[t.rank].Load() {
			m.release()
			return &RankDownError{Rank: t.rank, Cause: errInjectedCrash}
		}
		if f.drop(t.rank) {
			m.release()
			return nil
		}
		if p, ok := f.plan.Slow[t.rank]; ok {
			p.wait(len(m.data))
		}
	}
	if t.net != nil {
		t.charge(dst, len(m.data))
	}
	if err := t.world.boxes[dst].put(msgKey{src: t.rank, ctx: ctx, tag: tag}, m); err != nil {
		m.release()
		return err
	}
	return nil
}

// Isend implements Transport: an inline send completes here, data copied at
// once; any other is queued on the world's outbox.
func (t *memTransport) Isend(dst int, ctx uint64, tag int, data []byte) *Request {
	if !t.inline {
		return t.world.out.isend(t, dst, ctx, tag, data)
	}
	if err := t.Send(dst, ctx, tag, data); err != nil {
		return &Request{err: err}
	}
	return completedSend
}

// Recv implements Transport.
func (t *memTransport) Recv(src int, ctx uint64, tag int) ([]byte, error) {
	m, err := t.recvMsg(src, ctx, tag)
	return m.owned(), err
}

// recvMsg is Recv without the copy-out: the caller reads m.data in place and
// calls m.release exactly once. A crashed rank receives nothing, and the
// plan's detection timeout, if any, bounds the wait. (Crashes of OTHER ranks
// are the mailbox's to report, so every plane and both transports see them.)
func (t *memTransport) recvMsg(src int, ctx uint64, tag int) (message, error) {
	var detect time.Duration
	if f := t.inj; f != nil {
		if f.crashed[t.rank].Load() {
			return message{}, &RankDownError{Rank: t.rank, Cause: errInjectedCrash}
		}
		detect = f.plan.DetectTimeout
	}
	m, _, err := t.world.boxes[t.rank].wait(msgKey{src: src, ctx: ctx, tag: tag}, true, detect)
	return m, err
}

// TryRecv implements Transport.
func (t *memTransport) TryRecv(src int, ctx uint64, tag int) ([]byte, bool, error) {
	m, ok, err := t.world.boxes[t.rank].wait(msgKey{src: src, ctx: ctx, tag: tag}, false, 0)
	return m.owned(), ok, err
}

// NumRanks implements Transport.
func (t *memTransport) NumRanks() int { return len(t.world.boxes) }
