package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// ErrRankDown reports that a peer rank has failed. Operations touching a
// crashed rank — sends to it, receives from it once its already-delivered
// messages drain, detection timeouts standing in for a missing heartbeat —
// return an error matching this sentinel (errors.Is) instead of hanging, so
// collectives fail cleanly on every surviving rank. The concrete type is
// *RankDownError, which carries the failed rank.
var ErrRankDown = errors.New("mpi: rank down")

var (
	errInjectedCrash = errors.New("injected crash")
	errDetectTimeout = errors.New("detection timeout")
	errReconnecting  = errors.New("reconnect in progress")
)

// RankDownError is the concrete failure-detection error: Rank identifies the
// global rank believed dead, Cause (optional) says how the failure was
// observed — an injected crash, a detection timeout, a broken TCP connection.
// It matches ErrRankDown under errors.Is.
type RankDownError struct {
	// Rank is the global rank that failed.
	Rank int
	// Cause is the underlying observation, when there is one.
	Cause error
}

// Error implements error.
func (e *RankDownError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("mpi: rank %d down: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("mpi: rank %d down", e.Rank)
}

// Is makes every RankDownError match the ErrRankDown sentinel.
func (e *RankDownError) Is(target error) bool { return target == ErrRankDown }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *RankDownError) Unwrap() error { return e.Cause }

// DownRank extracts the failed rank from an error chain; -1 when the error
// does not describe a rank failure.
func DownRank(err error) int {
	var rd *RankDownError
	if errors.As(err, &rd) {
		return rd.Rank
	}
	return -1
}

// IsDetectTimeout reports whether err is a rank failure *presumed* from the
// detection timeout rather than confirmed by a crash. A timeout can blame a
// rank that is merely slow or itself waiting out a timeout, so recovery
// protocols whose progress is otherwise guaranteed (the sender is known
// live) should retry through these instead of treating them as fatal.
func IsDetectTimeout(err error) bool {
	var rd *RankDownError
	return errors.As(err, &rd) && errors.Is(rd.Cause, errDetectTimeout)
}

// IsReconnecting reports whether err is a TCP send failure whose bounded
// reconnect attempts ran out while the peer was not (yet) confirmed dead —
// a transient socket condition, not a failure verdict.
func IsReconnecting(err error) bool {
	var rd *RankDownError
	return errors.As(err, &rd) && errors.Is(rd.Cause, errReconnecting)
}

// IsTransient reports whether err is a PRESUMED rank failure — a detection
// timeout or a reconnect in progress — as opposed to a confirmed one (an
// injected crash, a down-marked mailbox, a refused dial after the rank was
// declared dead). Recovery protocols should retry through transient errors
// and treat only confirmed ones as membership changes.
func IsTransient(err error) bool {
	return IsDetectTimeout(err) || IsReconnecting(err)
}

// FaultPlan is a deterministic, seedable fault profile for an in-process
// world. The zero value injects nothing.
type FaultPlan struct {
	// Seed drives the message-drop hash; two runs with equal seeds drop
	// exactly the same messages.
	Seed int64
	// CrashAtStep kills rank r at the start of step CrashAtStep[r] — the
	// harness reports each step boundary via FaultInjector.Tick, which
	// returns the crash error on the victim.
	CrashAtStep map[int]int
	// DropProb silently loses each sent message with this probability
	// (deterministically, from Seed and a per-rank send counter). Lost
	// messages are how detection timeouts get exercised.
	DropProb float64
	// DetectTimeout bounds how long a Recv waits before presuming the
	// source dead and returning a RankDownError. Zero disables timeout
	// detection (crashes are still detected via down-marking).
	DetectTimeout time.Duration
	// Slow charges the listed ranks an extra LinkProfile delay on every
	// send — a straggler model layered on top of the world's links.
	Slow map[int]LinkProfile
}

// FaultInjector applies a FaultPlan to a World. Obtain one with
// World.InjectFaults before handing out communicators; the harness then
// drives its step clock with Tick.
type FaultInjector struct {
	world   *World
	plan    FaultPlan
	seq     []atomic.Uint64 // per-rank send counters for deterministic drops
	crashed []atomic.Bool
}

// InjectFaults attaches a fault plan to the world. Must be called before
// Comm: communicators created afterwards crash, drop, straggle and time out
// by it (memTransport).
func (w *World) InjectFaults(plan FaultPlan) *FaultInjector {
	inj := &FaultInjector{
		world:   w,
		plan:    plan,
		seq:     make([]atomic.Uint64, len(w.boxes)),
		crashed: make([]atomic.Bool, len(w.boxes)),
	}
	w.faults = inj
	return inj
}

// Plan returns the injector's fault plan.
func (f *FaultInjector) Plan() FaultPlan { return f.plan }

// Tick advances the injector's step clock for one rank. The harness calls it
// at the top of every training step; when the plan crashes this rank at this
// step, Tick kills the rank (sends to it and receives from it start failing
// world-wide) and returns the crash as a *RankDownError for the victim's own
// goroutine to exit with.
func (f *FaultInjector) Tick(rank, step int) error {
	if s, ok := f.plan.CrashAtStep[rank]; ok && step >= s && !f.crashed[rank].Load() {
		f.Crash(rank)
		return &RankDownError{Rank: rank, Cause: errInjectedCrash}
	}
	return nil
}

// Crash kills a rank immediately (idempotent).
func (f *FaultInjector) Crash(rank int) {
	if f.crashed[rank].Swap(true) {
		return
	}
	f.world.Crash(rank)
}

// Crashed reports whether the injector has killed the rank.
func (f *FaultInjector) Crashed(rank int) bool { return f.crashed[rank].Load() }

// drop decides — deterministically from the seed and this rank's send
// counter — whether the next message from rank is lost on the wire. A shared
// rand.Rand would make the decision depend on goroutine interleaving; the
// per-rank counter plus a mixing hash keeps equal seeds reproducible.
func (f *FaultInjector) drop(rank int) bool {
	if f.plan.DropProb <= 0 {
		return false
	}
	n := f.seq[rank].Add(1)
	h := splitmix64(uint64(f.plan.Seed) ^ uint64(rank)<<32 ^ n)
	return float64(h>>11)/(1<<53) < f.plan.DropProb
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-distributed mixer
// for the drop decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Crash marks a world rank dead: sends to it fail with ErrRankDown
// immediately, and receives from it fail once its already-delivered messages
// drain (in-flight data is not destroyed — a rank that sent before dying
// still gets its messages delivered, like a real network).
func (w *World) Crash(rank int) {
	w.downMu.Lock()
	if w.down == nil {
		w.down = make(map[int]bool)
	}
	already := w.down[rank]
	w.down[rank] = true
	w.downMu.Unlock()
	if already {
		return
	}
	w.boxes[rank].markOwnerDown()
	for r, b := range w.boxes {
		if r != rank {
			b.markDown(rank)
		}
	}
}

// DownRanks returns the ranks crashed so far, sorted.
func (w *World) DownRanks() []int {
	w.downMu.Lock()
	defer w.downMu.Unlock()
	ranks := make([]int, 0, len(w.down))
	for r := range w.down {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}
