package elastic

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/mpi"
)

// Plan declares the faults an elastic run is subjected to, keyed by trainer
// identity (the stable id, not the per-incarnation world rank). It extends
// mpi.FaultPlan with join scheduling and recovery-phase fault injection.
type Plan struct {
	// Seed drives the deterministic message-drop decisions and the
	// heartbeat send jitter.
	Seed int64
	// CrashAtStep kills the identity at the start of that global step. Each
	// identity crashes at most once, even if recovery recomputes the step.
	CrashAtStep map[int]int
	// CrashInNegotiation kills the identity INSIDE the membership
	// negotiation triggered by a failure at step >= the given value — the
	// second failure landing while the first is still being recovered. A
	// follower dies on the way in, before announcing itself; a rank that
	// gets elected leader dies at the heart of its leadership, after
	// collecting HELLOs and before broadcasting the verdict, which forces
	// the survivors to detect the death and re-elect.
	CrashInNegotiation map[int]int
	// CrashInRestore kills the identity right after it applies the restored
	// checkpoint of the incarnation resuming at the given step, before it
	// completes a single step — the crash-after-restore-before-ACK window.
	// Recovery restores the same checkpoint again (restore is idempotent:
	// the checkpoint is full-state), and the identity may rejoin at the
	// very step it died on.
	CrashInRestore map[int]int
	// JoinAtStep adds the identity to the world at that global step: the
	// cluster checkpoints, tears down, and restarts one rank larger — the
	// same resize path a crash uses, grown instead of shrunk. An identity
	// below Config.Identities rejoins after its crash (KindRejoin); one at
	// or above it is a spare, never a member before (KindSpare).
	JoinAtStep map[int]int
	// DropProb / DetectTimeout / Slow pass through to mpi.FaultPlan for
	// every incarnation of a faulty run (a fault-free one injects nothing).
	// DetectTimeout defaults to 5s when zero, and is also the heartbeat
	// silence after which the monitor suspects a peer: elastic training
	// REQUIRES a failure detector, because crash notification alone
	// cannot cover every race — a rank whose sends to the victim
	// completed just before the crash landed (e.g. an empty-shard rank
	// that only sends in the reduce-scatter) finishes its exchange cleanly
	// and blocks in the params allgather waiting on survivors that already
	// errored out; the timeout turns that into a typed failure. It should
	// comfortably exceed one step's duration to avoid false positives —
	// though a false positive is benign: the probe-based negotiation finds
	// every rank alive and the run restarts at the same size from the last
	// snapshot. Injected drops hit the training plane only — collectives
	// and checkpoint gathers; the recovery control plane (heartbeats and
	// the membership negotiation) rides an injection-free channel, the
	// reliability a real deployment gets from TCP retransmission, and one
	// that also keeps the seeded drop schedule deterministic (control
	// traffic never ticks the per-rank drop counters). DropProb and Slow
	// are mailbox-only; the TCP transport rejects them.
	DropProb      float64
	DetectTimeout time.Duration
	Slow          map[int]mpi.LinkProfile
}

// validate rejects fault schedules the protocol cannot honor. A join is one
// step per identity, so a spare can join and crash but not rejoin after.
func validate(cfg *Config) error {
	switch {
	case cfg.Identities <= 0:
		return errors.New("elastic: Identities must be positive")
	case cfg.Steps <= 0:
		return errors.New("elastic: Steps must be positive")
	case cfg.GlobalBatch <= 0:
		return errors.New("elastic: GlobalBatch must be positive")
	case cfg.NewReplica == nil:
		return errors.New("elastic: NewReplica is required")
	case cfg.NewSource == nil:
		return errors.New("elastic: NewSource is required")
	case !slices.Equal(resized(cfg.Learner.Topology, cfg.Identities).Node, cfg.Learner.Topology.Node):
		return fmt.Errorf("elastic: Learner.Topology %v is not a uniform layout of %d ranks; a resize could not keep it", cfg.Learner.Topology.Node, cfg.Identities)
	case cfg.Learner.GradScale != 0:
		return errors.New("elastic: Learner.GradScale must stay zero so gradients rescale per world size")
	}
	switch cfg.Transport {
	case "", TransportMem:
	case TransportTCP:
		if cfg.NewWorld != nil {
			return errors.New("elastic: NewWorld builds in-memory worlds; TCP brings its own")
		}
		if cfg.Plan.DropProb > 0 {
			return errors.New("elastic: DropProb is mailbox-only; TCP cannot drop messages deterministically")
		}
		if len(cfg.Plan.Slow) > 0 {
			return errors.New("elastic: Slow straggler profiles are mailbox-only")
		}
	default:
		return fmt.Errorf("elastic: unknown transport %q (want %q or %q)", cfg.Transport, TransportMem, TransportTCP)
	}
	for id := range cfg.Plan.CrashInNegotiation {
		if _, dup := cfg.Plan.CrashAtStep[id]; dup {
			return fmt.Errorf("elastic: identity %d cannot be in both CrashAtStep and CrashInNegotiation", id)
		}
		if _, dup := cfg.Plan.CrashInRestore[id]; dup {
			return fmt.Errorf("elastic: identity %d cannot be in both CrashInNegotiation and CrashInRestore", id)
		}
	}
	for id := range cfg.Plan.CrashInRestore {
		if _, dup := cfg.Plan.CrashAtStep[id]; dup {
			return fmt.Errorf("elastic: identity %d cannot be in both CrashAtStep and CrashInRestore", id)
		}
	}
	for id, rs := range cfg.Plan.JoinAtStep {
		if rs < 0 || rs >= cfg.Steps {
			return fmt.Errorf("elastic: identity %d joins at step %d, outside the run's %d steps", id, rs, cfg.Steps)
		}
		if id >= cfg.Identities {
			continue // a spare: no crash to come back from
		}
		switch {
		case hasKey(cfg.Plan.CrashAtStep, id):
			if rs <= cfg.Plan.CrashAtStep[id] {
				return fmt.Errorf("elastic: identity %d rejoins at step %d, not after its crash at step %d", id, rs, cfg.Plan.CrashAtStep[id])
			}
		case hasKey(cfg.Plan.CrashInNegotiation, id):
			if rs <= cfg.Plan.CrashInNegotiation[id] {
				return fmt.Errorf("elastic: identity %d rejoins at step %d, not after its negotiation crash (step >= %d)", id, rs, cfg.Plan.CrashInNegotiation[id])
			}
		case hasKey(cfg.Plan.CrashInRestore, id):
			// Rejoining at the very step it died on is the point: the
			// identity crashed after restoring to that step and comes back
			// into the same resume point.
			if rs < cfg.Plan.CrashInRestore[id] {
				return fmt.Errorf("elastic: identity %d rejoins at step %d, before its restore crash at step %d", id, rs, cfg.Plan.CrashInRestore[id])
			}
		default:
			return fmt.Errorf("elastic: identity %d rejoins at step %d but never crashes", id, rs)
		}
	}
	return nil
}

func hasKey(m map[int]int, id int) bool { _, ok := m[id]; return ok }

// faultFree reports whether the plan schedules nothing: no crash, join, drop
// or straggler. Such a run is one incarnation that starts no monitor and
// captures no checkpoint — the fixed-world loop.
func (p *Plan) faultFree() bool {
	return len(p.CrashAtStep)+len(p.CrashInNegotiation)+len(p.CrashInRestore)+len(p.JoinAtStep)+len(p.Slow) == 0 &&
		p.DropProb == 0
}

// resized lays a uniform topology out over n ranks: every node but the last
// holds as many ranks as t's first node. A flat t stays flat.
func resized(t mpi.Topology, n int) mpi.Topology {
	if !t.IsSet() {
		return t
	}
	k := 0
	for k < len(t.Node) && t.Node[k] == 0 {
		k++
	}
	return mpi.UniformTopology(n, k)
}

// incarnationPlan maps the identity-keyed fault plan onto this
// incarnation's world ranks, skipping crashes that already fired (recovery
// may recompute the crash step; the victim must not die twice). The drop
// seed is salted with the incarnation number: a restarted world must not
// replay the exact loss pattern that killed its predecessor, or a drop
// hitting the first post-resume capture livelocks the run — recover,
// replay, drop, recover, forever. Salting keeps the schedule fully
// deterministic (the incarnation sequence is itself deterministic) while
// modeling a network whose losses do not rewind with the job.
func incarnationPlan(cfg *Config, members []int, fired map[int]bool, incarnation int) mpi.FaultPlan {
	plan := mpi.FaultPlan{
		Seed:          cfg.Plan.Seed + int64(incarnation)*0x9E3779B9,
		DropProb:      cfg.Plan.DropProb,
		DetectTimeout: cfg.Plan.DetectTimeout,
	}
	for wr, id := range members {
		if s, ok := cfg.Plan.CrashAtStep[id]; ok && !fired[id] {
			if plan.CrashAtStep == nil {
				plan.CrashAtStep = make(map[int]int)
			}
			plan.CrashAtStep[wr] = s
		}
		if lp, ok := cfg.Plan.Slow[id]; ok {
			if plan.Slow == nil {
				plan.Slow = make(map[int]mpi.LinkProfile)
			}
			plan.Slow[wr] = lp
		}
	}
	return plan
}

// joinersAt lists the identities scheduled to join at global step s that
// are not currently members, sorted.
func joinersAt(cfg *Config, members []int, s int) []int {
	var ids []int
	for id, js := range cfg.Plan.JoinAtStep {
		if js != s {
			continue
		}
		if !slices.Contains(members, id) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}
