// Package detect is the failure-detection subsystem: a per-rank heartbeat
// monitor that turns silence into suspicion.
//
// The monitor runs over an ordinary *mpi.Comm — ideally a dedicated
// sub-communicator, whose isolated message context keeps heartbeat traffic
// from ever colliding with training collectives — so the same implementation
// covers both the in-memory mailbox transport and the real TCP transport.
// Each rank periodically sends a small heartbeat frame to every peer, with a
// deterministic per-rank jitter on the send interval so a synchronized
// world does not burst all its heartbeats onto the fabric at the same
// instant. A receiver goroutine polls TryRecv (never blocking, so the
// monitor can never deadlock a transport) and tracks per-peer arrival
// times; a peer silent past the suspicion window is declared suspect
// exactly once and reported through the Suspect callback.
//
// Suspicion deliberately produces no new error type: the callback is
// expected to down-mark the silent rank at the local transport (
// mpi.World.Suspect or mpi.TCPWorld.MarkDown), which makes every blocked
// or future receive from it fail with the existing typed *mpi.RankDownError.
// That is what removes the "a survivor happens to be blocked receiving from
// the dead rank" precondition of the per-Recv detection timeout: the monitor
// notices the silence even when every survivor is busy computing or blocked
// on a different peer, and the next touch of the dead rank fails typed.
//
// The suspicion rule is a miss-count accrual: a peer is suspected once
// nothing has arrived for SuspectAfter (default MissFactor heartbeat
// intervals). This is the degenerate fixed-threshold form of phi-accrual
// detection; the monitor additionally tracks observed inter-arrival times,
// and Phi exposes the accrual level (elapsed silence over mean observed
// inter-arrival) for callers that want a graded signal instead of the
// binary verdict.
package detect

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/mpi"
)

// Heartbeat frame: hbFrameLen zero bytes. Its length is all drain reads:
// arrival from a peer is the liveness signal, and whatever else lands on the
// tag is noise. It carries no membership epoch because no frame can cross
// one: every incarnation of a job builds a fresh world
// (elastic.newClusterWorld — new mailboxes, or new listeners on new ports),
// so a monitor only ever hears peers of its own epoch.
const (
	hbFrameLen   = 5
	hbTag        = 1 // user-tag on the monitor's comm; all monitor traffic uses it
	MissFactor   = 8 // default SuspectAfter = MissFactor × Interval
	pollDivisor  = 4 // receiver polls at Interval/pollDivisor
	jitterFactor = 0.25
)

// Config parameterizes a Monitor. The zero value is usable: every field
// has a default.
type Config struct {
	// Interval is the base heartbeat send period (default 50ms). The actual
	// period is jittered ±25% deterministically from Seed and the rank, so
	// a synchronized world does not phase-lock its heartbeat bursts.
	Interval time.Duration
	// SuspectAfter is the silence window after which a peer is declared
	// suspect (default MissFactor × Interval). It must comfortably exceed
	// one interval; values below 2× are raised to 2×.
	SuspectAfter time.Duration
	// Seed drives the send jitter (default: rank-mixed constant).
	Seed int64
	// OnSuspect is invoked exactly once per suspected peer rank, from the
	// monitor's receiver goroutine. It should down-mark the rank at the
	// local transport so receives fail typed; it must not block.
	OnSuspect func(rank int)
}

// Monitor is one rank's heartbeat failure detector. Create with NewMonitor,
// arm with Start, and Stop before tearing the transport down.
type Monitor struct {
	comm *mpi.Comm
	cfg  Config

	mu        sync.Mutex
	lastSeen  []time.Time
	meanGap   []float64 // observed inter-arrival mean per peer, seconds
	suspected []bool
	stop      chan struct{}
	done      sync.WaitGroup
	started   bool
}

// NewMonitor builds a monitor over the given communicator. The comm should
// be a dedicated sub-communicator (Comm.Sub over all ranks) so heartbeat
// frames can never be mistaken for application traffic.
func NewMonitor(c *mpi.Comm, cfg Config) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = MissFactor * cfg.Interval
	}
	if cfg.SuspectAfter < 2*cfg.Interval {
		cfg.SuspectAfter = 2 * cfg.Interval
	}
	m := &Monitor{
		comm:      c,
		cfg:       cfg,
		lastSeen:  make([]time.Time, c.Size()),
		meanGap:   make([]float64, c.Size()),
		suspected: make([]bool, c.Size()),
		stop:      make(chan struct{}),
	}
	return m
}

// Start arms the monitor: a sender goroutine emits jittered heartbeats and
// a receiver goroutine polls for peer heartbeats and raises suspicion. The
// silence clock for every peer starts now, so a peer that is already dead
// at Start is suspected after one full window.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	now := time.Now()
	for i := range m.lastSeen {
		m.lastSeen[i] = now
	}
	m.mu.Unlock()
	m.done.Add(2)
	go m.sendLoop()
	go m.recvLoop()
}

// Stop tears the monitor down and waits for its goroutines. Idempotent.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.mu.Unlock()
	m.done.Wait()
}

// Suspected reports whether the monitor has declared the peer suspect.
func (m *Monitor) Suspected(rank int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.suspected[rank]
}

// Phi returns the accrual suspicion level for a peer: elapsed silence over
// the mean observed inter-arrival time (0 when nothing has ever arrived and
// the monitor has not run long enough to judge). Values around 1 are
// normal; values near SuspectAfter/Interval mean the binary verdict is
// imminent.
func (m *Monitor) Phi(rank int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	gap := m.meanGap[rank]
	if gap <= 0 {
		gap = m.cfg.Interval.Seconds()
	}
	return time.Since(m.lastSeen[rank]).Seconds() / gap
}

func (m *Monitor) sendLoop() {
	defer m.done.Done()
	rng := rand.New(rand.NewSource(m.cfg.Seed ^ int64(uint64(m.comm.Rank()+1)*0x9e3779b97f4a7c15)))
	var frame [hbFrameLen]byte
	for {
		for p := 0; p < m.comm.Size(); p++ {
			if p == m.comm.Rank() {
				continue
			}
			// A failed send means the peer is already known dead (or the
			// transport is reconnecting); either way the silence on their
			// side does the detecting — nothing to do here.
			_ = m.comm.Send(p, hbTag, frame[:])
		}
		jitter := 1 + jitterFactor*(2*rng.Float64()-1)
		select {
		case <-m.stop:
			return
		case <-time.After(time.Duration(float64(m.cfg.Interval) * jitter)):
		}
	}
}

func (m *Monitor) recvLoop() {
	defer m.done.Done()
	poll := m.cfg.Interval / pollDivisor
	if poll <= 0 {
		poll = time.Millisecond
	}
	for {
		for p := 0; p < m.comm.Size(); p++ {
			if p == m.comm.Rank() {
				continue
			}
			m.drain(p)
		}
		m.judge()
		select {
		case <-m.stop:
			return
		case <-time.After(poll):
		}
	}
}

// drain consumes every queued heartbeat from peer p without blocking.
func (m *Monitor) drain(p int) {
	for {
		b, ok, err := m.comm.TryRecv(p, hbTag)
		if err != nil || !ok {
			return // down, closed, or nothing queued: the judge decides
		}
		if len(b) == hbFrameLen {
			now := time.Now()
			m.mu.Lock()
			if !m.lastSeen[p].IsZero() {
				gap := now.Sub(m.lastSeen[p]).Seconds()
				if m.meanGap[p] == 0 {
					m.meanGap[p] = gap
				} else {
					m.meanGap[p] = 0.8*m.meanGap[p] + 0.2*gap
				}
			}
			m.lastSeen[p] = now
			m.mu.Unlock()
		}
		mpi.PutBytes(b)
	}
}

// judge raises suspicion for peers silent past the window.
func (m *Monitor) judge() {
	now := time.Now()
	var newly []int
	m.mu.Lock()
	for p := range m.lastSeen {
		if p == m.comm.Rank() || m.suspected[p] {
			continue
		}
		if now.Sub(m.lastSeen[p]) > m.cfg.SuspectAfter {
			m.suspected[p] = true
			newly = append(newly, p)
		}
	}
	m.mu.Unlock()
	for _, p := range newly {
		if m.cfg.OnSuspect != nil {
			m.cfg.OnSuspect(p)
		}
	}
}
