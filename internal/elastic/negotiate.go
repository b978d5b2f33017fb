package elastic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
)

// Control-plane tags on the negotiation sub-communicator (user tag space).
const (
	tagHello   = 1 // survivor → leader: empty, its arrival is the message
	tagProbe   = 2 // leader → higher ranks: liveness probe, never received
	tagVerdict = 3 // leader → survivors: epoch + member list + checkpoint
)

// Negotiation protocol parameters.
const (
	// epochRoundBits splits the verdict epoch: the incarnation number in the
	// high bits, the election round in the low epochRoundBits.
	epochRoundBits = 16
	epochBaseMask  = ^(uint64(1)<<epochRoundBits - 1)
	// verdictBudget bounds how long a follower waits for any verdict across
	// transient retries; helloBudget bounds how long a leader waits for one
	// follower's HELLO before evicting it as unresponsive.
	verdictBudget = 45 * time.Second
	helloBudget   = 20 * time.Second
	// transientPause spaces retries once a source is presumptively
	// down-marked and receives fail fast instead of blocking out a timeout.
	transientPause = 20 * time.Millisecond
)

// verdict is the outcome of one membership negotiation: the epoch it was
// minted in, the surviving world ranks (of the incarnation that failed),
// and the checkpoint to resume from.
type verdict struct {
	epoch   uint64
	members []int
	ck      *checkpoint.Checkpoint
}

// errSabotaged marks a negotiation aborted by an injected second crash: the
// rank died inside the protocol and must exit silently, like any victim.
var errSabotaged = errors.New("elastic: injected crash inside negotiation")

// negotiate is the leader-coordinated membership agreement a survivor runs
// after its step fails with ErrRankDown. Probe-send an empty HELLO upward
// from rank 0: sends to dead ranks fail, so the first delivery finds the
// lowest live rank — the leader. A follower then waits for that leader's VERDICT,
// retrying through transient failures (a detection timeout blaming a slow
// leader, a TCP reconnect in progress); only a CONFIRMED rank-down error —
// a crash marking, a heartbeat suspicion — advances it to the next election
// round, where it re-probes from rank 0. The epoch stamped into each
// verdict is (incarnation << 16) | round, and a follower ignores verdicts
// whose incarnation part is not its own: a stale leader cannot commit a
// dead membership.
//
// die, when non-nil, is the injected second failure: a follower dies on the
// way in (before announcing itself, so no verdict can include it); a rank
// that gets elected leader dies after collecting HELLOs and before
// broadcasting, forcing a re-election.
func negotiate(ctrl *mpi.Comm, ck *checkpoint.Checkpoint, baseEpoch uint64, die func() bool) (*verdict, error) {
	if die != nil && ctrl.Rank() != 0 {
		// Followers die at the door. (Rank 0 is left to be elected leader —
		// it is the lowest rank, so whenever it is alive it leads — and
		// dies mid-leadership inside lead instead.)
		if die() {
			return nil, errSabotaged
		}
	}
	// A round can be burned by a stale socket electing an already-dead
	// leader before its down-marking lands, so allow a couple per rank.
	maxRounds := 2*ctrl.Size() + 2
	for round := 0; round < maxRounds; round++ {
		leader := ctrl.Rank()
		for q := 0; q < ctrl.Rank(); q++ {
			if err := ctrl.Send(q, tagHello, nil); err == nil {
				leader = q
				break
			}
			// Send failed: q is down. Keep probing upward.
		}
		if leader == ctrl.Rank() {
			return lead(ctrl, ck, baseEpoch|uint64(round), die)
		}
		v, err := awaitVerdict(ctrl, leader, baseEpoch)
		if err == nil {
			return v, nil
		}
		if errors.Is(err, mpi.ErrRankDown) && !mpi.IsTransient(err) {
			continue // the leader died mid-negotiation: re-elect
		}
		return nil, fmt.Errorf("awaiting verdict from leader %d: %w", leader, err)
	}
	return nil, fmt.Errorf("membership negotiation ran out of elections after %d rounds", maxRounds)
}

// lead runs the leader's half of one election round: probe every higher
// rank for liveness, collect the live ones' HELLOs, and broadcast the
// epoch-stamped VERDICT. The verdict carries the LEADER's latest snapshot —
// every survivor restores from it, so the followers' own snapshot steps
// (possibly one capture boundary ahead or behind after a failure landed
// mid-capture) never need to agree. A leader holding no snapshot yet — the
// failure beat the very first capture — issues a fresh-start verdict: the
// survivors begin again from step 0. A probed rank whose HELLO never
// arrives within the budget is evicted as unresponsive but still sent the
// verdict, so a wedged-but-live rank converges on the same membership
// (finding itself excluded).
func lead(ctrl *mpi.Comm, ck *checkpoint.Checkpoint, epoch uint64, die func() bool) (*verdict, error) {
	r := ctrl.Rank()
	var reachable []int
	for q := r + 1; q < ctrl.Size(); q++ {
		if err := ctrl.Send(q, tagProbe, nil); err != nil {
			continue // dead
		}
		reachable = append(reachable, q)
	}
	members := []int{r}
	for _, q := range reachable {
		b, err := recvRetry(ctrl, q, tagHello, helloBudget)
		if err != nil {
			if errors.Is(err, mpi.ErrRankDown) {
				continue // died (or stayed silent past the budget): evicted
			}
			return nil, fmt.Errorf("leader awaiting hello from rank %d: %w", q, err)
		}
		mpi.PutBytes(b)
		members = append(members, q)
	}
	if die != nil && die() {
		// The leader dies with the verdict on its lips: every HELLO
		// collected, nothing broadcast. The followers' waits fail confirmed
		// (crash marking or heartbeat suspicion) and they re-elect.
		return nil, errSabotaged
	}
	payload, err := encodeVerdict(epoch, members, ck)
	if err != nil {
		return nil, err
	}
	for _, q := range reachable {
		// Evicted ranks get the verdict too, and a send failing because q
		// died since the probe is fine to ignore — its absence from the
		// next incarnation is already decided.
		_ = ctrl.Send(q, tagVerdict, payload)
	}
	return &verdict{epoch: epoch, members: members, ck: ck}, nil
}

// awaitVerdict waits for the leader's verdict, dropping stale ones: a
// verdict whose epoch belongs to a different incarnation's negotiation
// (a stale leader replaying an old decision) is ignored, never applied.
func awaitVerdict(ctrl *mpi.Comm, leader int, baseEpoch uint64) (*verdict, error) {
	deadline := time.Now().Add(verdictBudget)
	for {
		b, err := recvRetryUntil(ctrl, leader, tagVerdict, deadline)
		if err != nil {
			return nil, err
		}
		v, perr := parseVerdict(b, ctrl.Size())
		mpi.PutBytes(b)
		if perr != nil {
			return nil, perr
		}
		if !sameNegotiation(v.epoch, baseEpoch) {
			if !time.Now().Before(deadline) {
				return nil, fmt.Errorf("leader %d produced only stale verdicts (epoch %#x, want incarnation %#x)", leader, v.epoch, baseEpoch>>epochRoundBits)
			}
			continue // stale: keep waiting for a verdict from THIS negotiation
		}
		return v, nil
	}
}

// sameNegotiation reports whether a verdict epoch was minted by the
// negotiation identified by baseEpoch — same incarnation, any election
// round. Rounds legitimately differ between a follower and its eventual
// leader (a late entrant skips dead leaders it never waited on), so only
// the incarnation part gates acceptance.
func sameNegotiation(epoch, baseEpoch uint64) bool {
	return epoch&epochBaseMask == baseEpoch&epochBaseMask
}

// recvRetry receives on the control comm, retrying through TRANSIENT rank
// failures until the budget runs out: a detection timeout blaming a peer
// that is merely slow (still waiting out its own timeout inside a training
// collective before it drains into the negotiation), or a TCP send/receive
// caught mid-reconnect. A confirmed failure — crash marking, heartbeat
// suspicion — surfaces immediately. Once a source is presumptively
// down-marked its receives fail fast, so retries are paced by a short pause
// instead of spinning.
func recvRetry(ctrl *mpi.Comm, src, tag int, budget time.Duration) ([]byte, error) {
	return recvRetryUntil(ctrl, src, tag, time.Now().Add(budget))
}

func recvRetryUntil(ctrl *mpi.Comm, src, tag int, deadline time.Time) ([]byte, error) {
	for {
		b, err := ctrl.Recv(src, tag)
		if err != nil && mpi.IsTransient(err) && time.Now().Before(deadline) {
			time.Sleep(transientPause)
			continue
		}
		return b, err
	}
}

// Verdict wire format:
// [epoch:8][n:4][members: 4 bytes each][hasCk:1][checkpoint if hasCk].
// hasCk = 0 is a fresh-start verdict: the survivors resume from step 0
// with reinitialized state (the failure beat the very first capture).
func encodeVerdict(epoch uint64, members []int, ck *checkpoint.Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	var u8 [8]byte
	binary.LittleEndian.PutUint64(u8[:], epoch)
	buf.Write(u8[:])
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(len(members)))
	buf.Write(u[:])
	for _, m := range members {
		binary.LittleEndian.PutUint32(u[:], uint32(m))
		buf.Write(u[:])
	}
	if ck == nil {
		buf.WriteByte(0)
		return buf.Bytes(), nil
	}
	buf.WriteByte(1)
	if _, err := ck.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("serializing verdict checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// parseVerdict decodes a verdict minted in a world of size ranks. The
// member list must name distinct ranks of that world in ascending order —
// the orchestrator indexes the old membership by them.
func parseVerdict(b []byte, size int) (*verdict, error) {
	if len(b) < 12 {
		return nil, errors.New("short verdict header")
	}
	epoch := binary.LittleEndian.Uint64(b)
	n := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	if n <= 0 || n > (len(b)-1)/4 { // 4 bytes a member, then the hasCk byte
		return nil, fmt.Errorf("truncated verdict member list (%d members, %d bytes)", n, len(b))
	}
	members := make([]int, n)
	for i := range members {
		m := binary.LittleEndian.Uint32(b[4*i:])
		if m >= uint32(size) || i > 0 && int(m) <= members[i-1] {
			return nil, fmt.Errorf("verdict member %d is rank %d: want ascending ranks below %d", i, m, size)
		}
		members[i] = int(m)
	}
	b = b[4*n:]
	if b[0] == 0 {
		return &verdict{epoch: epoch, members: members}, nil
	}
	ck, err := checkpoint.Read(bytes.NewReader(b[1:]))
	if err != nil {
		return nil, fmt.Errorf("decoding verdict checkpoint: %w", err)
	}
	return &verdict{epoch: epoch, members: members, ck: ck}, nil
}

// resumeStepOf is the global step a verdict resumes at: the checkpoint's
// step, or 0 for a fresh-start verdict.
func resumeStepOf(v *verdict) int {
	if v.ck == nil {
		return 0
	}
	return int(v.ck.Step)
}
