// Package elastic runs fault-tolerant data-parallel training over the MPI
// runtime: a cluster that survives rank crashes by shrinking to the live
// membership, restoring from the latest rank-count-independent checkpoint,
// and resuming — and that grows back through the same resize path when a
// rank rejoins or a standby spare is admitted.
//
// The unit of execution is an incarnation: one world at the current
// membership size running the training loop from the resume step. The world
// is either the in-memory mailbox transport (Config.Transport "mem", the
// default) or real TCP loopback sockets ("tcp") — the training math,
// membership protocol, and checkpoint flow are identical, so the two
// transports produce bitwise-identical weights for the same seeded failure
// schedule.
//
// Every rank of an incarnation runs a heartbeat failure monitor
// (internal/detect) on an out-of-band control channel. Over TCP the monitor
// is what makes detection work like the paper's deployment: a killed rank's
// silence turns into suspicion, the suspicion down-marks the rank at each
// survivor's transport, and the next touch of it fails with the existing
// typed mpi.ErrRankDown — no survivor needs to be blocked receiving from
// the victim. Over the mailbox transport a crash is confirmed world-wide
// the instant it lands, so the monitor is redundant there, but it runs
// anyway: one integration, two fabrics.
//
// Membership agreement is probe-based and crash-safe. Each survivor sends
// its HELLO upward from rank 0 — sends to dead ranks fail, so the first
// successful send finds the lowest live rank, which becomes the leader (a
// survivor whose every lower rank is dead leads itself). The leader probes
// the higher ranks for liveness, collects their HELLOs (each carries the
// sender's checkpoint step, which must agree with the leader's — captures
// are collective, so every survivor's latest snapshot is the same step),
// and broadcasts a VERDICT carrying the negotiation epoch, the new member
// list, and the serialized checkpoint everyone resumes from.
//
// The protocol survives the leader itself dying mid-negotiation: a follower
// whose wait for the verdict fails with a CONFIRMED rank-down error (a
// crash marking or a heartbeat suspicion — transient detection timeouts are
// retried through, because a slow leader is not a dead one) advances to the
// next election round and re-probes from rank 0, and the round number is
// stamped into the verdict epoch. Verdicts are epoch-numbered as
// (incarnation << 16) | round: a follower rejects any verdict whose
// incarnation part does not match the negotiation it is in — a stale
// leader's verdict cannot commit a dead membership — and when leaders died
// after partial broadcasts leave survivors holding different rounds'
// verdicts, the orchestrator resolves to the highest epoch.
//
// GlobalBatch is held constant across resizes: each incarnation deals the
// same global batch sequence regardless of world size (core.SliceSource
// with StartStep), so the post-recovery loss trajectory is comparable to a
// failure-free run.
package elastic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Control-plane tags on the negotiation sub-communicator (user tag space).
const (
	tagHello   = 1 // survivor → leader: [checkpoint step:8][epoch:8]
	tagProbe   = 2 // leader → higher ranks: liveness probe, never received
	tagVerdict = 3 // leader → survivors: epoch + member list + checkpoint
)

// Negotiation protocol parameters.
const (
	helloLen = 16
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

// Event kinds.
const (
	KindCrash  = "crash"
	KindRejoin = "rejoin"
	KindSpare  = "spare"
	// kindGrow is the internal incarnation-boundary marker for voluntary
	// exits that grow the world; the orchestrator splits it into KindRejoin
	// and KindSpare events per admitted identity.
	kindGrow = "grow"
)

// Plan declares the faults an elastic run is subjected to, keyed by trainer
// identity (the stable id, not the per-incarnation world rank). It extends
// mpi.FaultPlan with rejoin scheduling and recovery-phase fault injection.
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
	// RejoinAtStep brings a previously crashed identity back at that global
	// step: the cluster checkpoints, tears down, and restarts one rank
	// larger — the same resize path a crash uses, grown instead of shrunk.
	RejoinAtStep map[int]int
	// SpareJoinAtStep admits a standby identity — one that was never a
	// member and never crashed — at the given global step through the same
	// grow path. Spare identities must lie outside the initial member range
	// so they cannot collide with a crashed identity's rejoin.
	SpareJoinAtStep map[int]int
	// DropProb / DetectTimeout / Slow pass through to mpi.FaultPlan for
	// every incarnation. DetectTimeout defaults to 5s when zero: elastic
	// training REQUIRES a failure detector, because crash notification
	// alone cannot cover every race — a rank whose sends to the victim
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

// Config describes an elastic training run.
type Config struct {
	// Identities is the initial world size; trainer identities are
	// 0..Identities-1 and stay stable across resizes. Spare identities live
	// above this range.
	Identities int
	// DevicesPerNode is the replica count per rank (default 1).
	DevicesPerNode int
	// GlobalBatch is the total batch per step, constant across resizes. It
	// must divide evenly by liveRanks·DevicesPerNode at every world size
	// the run passes through.
	GlobalBatch int
	// Steps is the total number of global steps to complete.
	Steps int
	// CheckpointEvery is the capture cadence in steps (default 1). An
	// incarnation always captures at its resume step, so there is a
	// restorable snapshot before any crash can land.
	CheckpointEvery int
	// Transport selects the incarnation fabric: TransportMem (default) or
	// TransportTCP for real loopback sockets.
	Transport string
	// HeartbeatInterval is the monitor's base send period (default 50ms).
	HeartbeatInterval time.Duration
	// SuspectAfter is the heartbeat silence window after which a peer is
	// suspected (default: Plan.DetectTimeout, so suspicion and the receive
	// timeout agree on what "too silent" means).
	SuspectAfter time.Duration
	// NewReplica builds one model replica from a seed.
	NewReplica func(seed int64) nn.Layer
	// Data/Labels with the input dimensions feed core.SliceSource.
	Data                   *tensor.Tensor
	Labels                 []int
	InputC, InputH, InputW int
	// Learner is the core.Config template. BatchPerDevice is derived from
	// GlobalBatch per incarnation; GradScale should stay zero so the
	// learner rescales to 1/(ranks·devices) at each world size; Topology
	// is rejected (a fixed rank→node layout cannot survive a resize).
	Learner core.Config
	// Plan schedules the faults.
	Plan Plan
}

// Event records one elasticity event: a crash that shrank the world, a
// rejoin that grew it, or a spare admission.
type Event struct {
	Kind     string `json:"kind"`
	Step     int    `json:"step"`     // global step the event fired at
	Identity int    `json:"identity"` // victim, rejoiner, or admitted spare
	OldWorld int    `json:"old_world"`
	NewWorld int    `json:"new_world"`
	// ResumeStep is where the next incarnation picked up (the restored
	// checkpoint's step); StepsLost counts the recomputed steps.
	ResumeStep int `json:"resume_step"`
	StepsLost  int `json:"steps_lost"`
	// RecoverySec spans from the moment the failure surfaced (or the
	// grow boundary was reached) to the first completed step of the next
	// incarnation — membership negotiation, world rebuild, and restore.
	RecoverySec float64 `json:"recovery_sec"`
}

// Result is the outcome of an elastic run that completed every step.
type Result struct {
	Steps        int       `json:"steps"`
	Incarnations int       `json:"incarnations"`
	Events       []Event   `json:"events"`
	Losses       []float64 `json:"losses"` // global mean loss per step
	FinalLoss    float64   `json:"final_loss"`
	FinalWeights []float32 `json:"-"` // rank 0's weights after the last step
}

// verdict is the outcome of one membership negotiation: the epoch it was
// minted in, the surviving world ranks (of the incarnation that failed),
// and the checkpoint to resume from.
type verdict struct {
	epoch   uint64
	members []int
	ck      *checkpoint.Checkpoint
}

// incOut is everything one incarnation reports back to the orchestrator.
type incOut struct {
	done         bool
	kind         string // KindCrash or kindGrow when !done
	verdict      *verdict
	stopStep     int       // step the incarnation stopped at
	stoppedAt    time.Time // when the failure surfaced / boundary was hit
	firstStepAt  time.Time // when the first step of this incarnation completed
	losses       [][]float64
	finalWeights []float32
}

// Run executes the elastic training loop to completion, surviving every
// scheduled crash and rejoin, and returns the stitched-together result.
func Run(cfg Config) (*Result, error) {
	if cfg.DevicesPerNode <= 0 {
		cfg.DevicesPerNode = 1
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.Plan.DetectTimeout <= 0 {
		cfg.Plan.DetectTimeout = 5 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 50 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = cfg.Plan.DetectTimeout
	}
	if err := validate(&cfg); err != nil {
		return nil, err
	}

	members := make([]int, cfg.Identities)
	for i := range members {
		members[i] = i
	}
	fired := make(map[int]bool) // identities whose crash already happened
	var snap *checkpoint.Checkpoint
	resumeStep := 0

	// The spare pool is the standby registry: a scheduled spare is standing
	// by from the start (a live standby process would keep this registration
	// fresh with standby-flagged heartbeats — see internal/detect), and is
	// admitted at its scheduled membership boundary.
	spares := detect.NewSparePool(members)
	for id := range cfg.Plan.SpareJoinAtStep {
		spares.Register(id)
	}

	res := &Result{Losses: make([]float64, cfg.Steps)}
	var pending []int // indexes into res.Events awaiting RecoverySec
	var stoppedAt time.Time
	for {
		res.Incarnations++
		out, err := runIncarnation(&cfg, members, snap, resumeStep, fired, res.Incarnations)
		if err != nil {
			return nil, err
		}
		if len(pending) > 0 && !out.firstStepAt.IsZero() {
			lat := out.firstStepAt.Sub(stoppedAt).Seconds()
			for _, i := range pending {
				res.Events[i].RecoverySec = lat
			}
			pending = nil
		}
		mergeLosses(res, out, resumeStep, len(members))
		if out.done {
			res.Steps = cfg.Steps
			res.FinalWeights = out.finalWeights
			res.FinalLoss = res.Losses[cfg.Steps-1]
			return res, nil
		}

		v := out.verdict
		resume := resumeStepOf(v)
		var next []int
		switch out.kind {
		case KindCrash:
			for _, wr := range v.members {
				next = append(next, members[wr])
			}
			for _, id := range diffIdentities(members, next) {
				fired[id] = true
				spares.Evict(id)
				res.Events = append(res.Events, Event{
					Kind: KindCrash, Step: out.stopStep, Identity: id,
					OldWorld: len(members), NewWorld: len(next),
					ResumeStep: resume,
					StepsLost:  out.stopStep - resume,
				})
				pending = append(pending, len(res.Events)-1)
			}
		case kindGrow:
			next = append(next, members...)
			rejoiners := rejoinersAt(&cfg, members, out.stopStep)
			admitted := spareJoinsAt(&cfg, members, out.stopStep)
			newWorld := len(members) + len(rejoiners) + len(admitted)
			for _, id := range rejoiners {
				next = append(next, id)
				res.Events = append(res.Events, Event{
					Kind: KindRejoin, Step: out.stopStep, Identity: id,
					OldWorld: len(members), NewWorld: newWorld,
					ResumeStep: resume,
				})
				pending = append(pending, len(res.Events)-1)
			}
			for _, id := range admitted {
				if err := spares.Admit(id); err != nil {
					return nil, fmt.Errorf("elastic: admitting spare %d: %w", id, err)
				}
				next = append(next, id)
				res.Events = append(res.Events, Event{
					Kind: KindSpare, Step: out.stopStep, Identity: id,
					OldWorld: len(members), NewWorld: newWorld,
					ResumeStep: resume,
				})
				pending = append(pending, len(res.Events)-1)
			}
			sort.Ints(next)
		default:
			return nil, fmt.Errorf("elastic: incarnation stopped with unknown kind %q", out.kind)
		}
		if len(next) == 0 {
			return nil, errors.New("elastic: no members left to resume with")
		}
		members, snap, resumeStep = next, v.ck, resume
		stoppedAt = out.stoppedAt
	}
}

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
	case cfg.Data == nil:
		return errors.New("elastic: Data is required")
	case cfg.Learner.Topology.IsSet():
		return errors.New("elastic: Learner.Topology cannot survive a resize; leave the world flat")
	case cfg.Learner.GradScale != 0:
		return errors.New("elastic: Learner.GradScale must stay zero so gradients rescale per world size")
	}
	switch cfg.Transport {
	case "", TransportMem:
	case TransportTCP:
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
	for id, s := range cfg.Plan.SpareJoinAtStep {
		if id < cfg.Identities {
			return fmt.Errorf("elastic: spare identity %d collides with the initial members 0..%d", id, cfg.Identities-1)
		}
		if s < 0 || s >= cfg.Steps {
			return fmt.Errorf("elastic: spare %d joins at step %d, outside the run's %d steps", id, s, cfg.Steps)
		}
	}
	for id, rs := range cfg.Plan.RejoinAtStep {
		if rs >= cfg.Steps {
			return fmt.Errorf("elastic: identity %d rejoins at step %d, past the run's %d steps", id, rs, cfg.Steps)
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

// runIncarnation runs one world at the current membership from resumeStep
// until the run completes, a crash fails a step, or a grow boundary (rejoin
// or spare admission) is reached.
func runIncarnation(cfg *Config, members []int, snap *checkpoint.Checkpoint, resumeStep int, fired map[int]bool, incarnation int) (*incOut, error) {
	n := len(members)
	if cfg.GlobalBatch%(n*cfg.DevicesPerNode) != 0 {
		return nil, fmt.Errorf("elastic: GlobalBatch %d does not divide across %d ranks × %d devices", cfg.GlobalBatch, n, cfg.DevicesPerNode)
	}
	bpd := cfg.GlobalBatch / (n * cfg.DevicesPerNode)
	baseEpoch := uint64(incarnation) << epochRoundBits

	cw, err := newClusterWorld(cfg, members, fired, incarnation)
	if err != nil {
		return nil, err
	}
	defer cw.close()

	out := &incOut{losses: make([][]float64, n)}
	var (
		mu        sync.Mutex
		firstStep sync.Once
		verdicts  = make([]*verdict, n)
		doneRanks int
	)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}

	err = cw.run(func(rank int, c, monC *mpi.Comm) error {
		id := members[rank]
		// The negotiation sub-communicator is derived from the CONTROL comm,
		// not the training comm: an isolated context (no collision with
		// in-flight collectives) on the injection-free channel, so the
		// protocol that recovers from failures is not itself subject to the
		// injected message loss — over a real network, TCP retransmission
		// gives the control plane exactly that reliability.
		ctrl, err := monC.Sub(all)
		if err != nil {
			return err
		}
		// The heartbeat monitor: suspicion feeds the transport's local
		// down-marking, which is how a killed rank is detected over TCP
		// even when no survivor is blocked receiving from it.
		monitor := detect.NewMonitor(monC, detect.Config{
			Interval:     cfg.HeartbeatInterval,
			SuspectAfter: cfg.SuspectAfter,
			Identity:     id,
			Seed:         cfg.Plan.Seed,
			OnSuspect:    func(peer int) { cw.suspect(rank, peer) },
		})
		monitor.Start()
		defer monitor.Stop()

		lcfg := cfg.Learner
		lcfg.BatchPerDevice = bpd
		replicas := make([]nn.Layer, cfg.DevicesPerNode)
		for d := range replicas {
			replicas[d] = cfg.NewReplica(int64(rank*cfg.DevicesPerNode + d + 1))
		}
		src := &core.SliceSource{X: cfg.Data, Labels: cfg.Labels, Rank: rank, Ranks: n, StartStep: resumeStep}
		l, err := core.NewLearner(c, replicas, src, cfg.InputC, cfg.InputH, cfg.InputW, lcfg)
		if err != nil {
			return err
		}
		defer l.Close()
		if snap != nil {
			if err := l.RestoreCheckpoint(snap); err != nil {
				return err
			}
		}
		ck := snap
		myLosses := make([]float64, 0, cfg.Steps-resumeStep)
		record := func() {
			mu.Lock()
			out.losses[rank] = myLosses
			mu.Unlock()
		}
		// recovery runs the membership negotiation after a failure at step
		// s, honoring an injected second crash scheduled inside it. A nil
		// return means this rank is finished with the incarnation — either
		// holding a verdict or dead by sabotage.
		recovery := func(s int) error {
			mu.Lock()
			out.kind = KindCrash
			if out.stoppedAt.IsZero() {
				out.stoppedAt = time.Now()
				out.stopStep = s
			} else if s < out.stopStep {
				out.stopStep = s
			}
			mu.Unlock()
			var die func() bool
			if cs, ok := cfg.Plan.CrashInNegotiation[id]; ok && !fired[id] && s >= cs {
				die = func() bool {
					cw.crash(rank)
					return true
				}
			}
			v, nerr := negotiate(ctrl, ck, baseEpoch, die)
			if nerr != nil {
				if errors.Is(nerr, errSabotaged) {
					return nil // killed inside the negotiation: die silently
				}
				return fmt.Errorf("elastic: rank %d membership negotiation: %w", rank, nerr)
			}
			mu.Lock()
			verdicts[rank] = v
			mu.Unlock()
			return nil
		}

		// Second injected failure: die after applying the restored
		// checkpoint, before completing (ACKing) a single step. The
		// survivors recover by restoring the SAME checkpoint again —
		// restore idempotency is what makes the window safe.
		if s0, ok := cfg.Plan.CrashInRestore[id]; ok && !fired[id] && snap != nil && resumeStep == s0 {
			cw.crash(rank)
			record()
			return nil
		}

		for s := resumeStep; s < cfg.Steps; s++ {
			if len(rejoinersAt(cfg, members, s))+len(spareJoinsAt(cfg, members, s)) > 0 {
				// Voluntary incarnation boundary: checkpoint fresh at this
				// step (every rank evaluates the same condition, so the
				// collective capture lines up) and exit; the orchestrator
				// restarts the world with the grown membership.
				ck2, err := l.CaptureCheckpoint(epochOf(cfg, s))
				if err != nil {
					record()
					return fmt.Errorf("elastic: rank %d grow checkpoint at step %d: %w", rank, s, err)
				}
				mu.Lock()
				out.kind = kindGrow
				out.stopStep = s
				if out.stoppedAt.IsZero() {
					out.stoppedAt = time.Now()
				}
				verdicts[rank] = &verdict{epoch: baseEpoch, members: all, ck: ck2}
				mu.Unlock()
				record()
				return nil
			}
			// Capture at the cadence, plus once at the resume step so a
			// snapshot always exists before any crash can land. Crashes
			// fire at the top of a step, after this point — so a capture
			// in progress is never interrupted, and every rank's latest
			// successful snapshot is the same step.
			if s%cfg.CheckpointEvery == 0 || s == resumeStep {
				if !(s == resumeStep && ck != nil) { // resuming: snap already is step s
					ck2, err := l.CaptureCheckpoint(epochOf(cfg, s))
					if err != nil {
						// A failure can land mid-capture (the sharded gather
						// is a collective): recoverable like any step
						// failure. Every survivor restores from the
						// verdict's checkpoint — the leader's latest, or a
						// fresh start if the leader holds none yet — so a
						// rank whose own capture failed loses nothing.
						if errors.Is(err, mpi.ErrRankDown) {
							err = recovery(s)
						} else {
							err = fmt.Errorf("elastic: rank %d checkpoint at step %d: %w", rank, s, err)
						}
						record()
						return err
					}
					ck = ck2
				}
			}
			if err := cw.tick(rank, s); err != nil {
				record()
				return nil // this rank is the victim: die silently
			}
			loss, err := l.Step()
			if err != nil {
				if !errors.Is(err, mpi.ErrRankDown) {
					record()
					return fmt.Errorf("elastic: rank %d step %d: %w", rank, s, err)
				}
				err = recovery(s)
				record()
				return err
			}
			myLosses = append(myLosses, loss)
			firstStep.Do(func() {
				mu.Lock()
				out.firstStepAt = time.Now()
				mu.Unlock()
			})
		}
		mu.Lock()
		doneRanks++
		mu.Unlock()
		if rank == 0 {
			wts, err := l.FlatWeights()
			if err != nil {
				record()
				return err
			}
			mu.Lock()
			out.finalWeights = wts
			mu.Unlock()
		}
		record()
		return nil
	})
	if err != nil {
		return nil, err
	}

	if doneRanks == n {
		out.done = true
		return out, nil
	}
	// Reconcile the survivors' verdicts. Normally every returned verdict is
	// byte-identical (one final leader broadcasts to everyone it probed,
	// evicted ranks included). If a leader died after a PARTIAL broadcast,
	// survivors can hold verdicts from different election rounds; the
	// highest epoch supersedes WHOLESALE — member list and resume step both,
	// since the later round was negotiated with knowledge of the older
	// leader's death. Verdicts from the same epoch must agree exactly.
	var v *verdict
	for _, cand := range verdicts {
		if cand == nil {
			continue
		}
		if v == nil || cand.epoch > v.epoch {
			v = cand
			continue
		}
		if cand.epoch < v.epoch {
			continue // superseded
		}
		if resumeStepOf(cand) != resumeStepOf(v) || !equalInts(v.members, cand.members) {
			return nil, fmt.Errorf("elastic: same-epoch verdicts disagree (%v@%d vs %v@%d)",
				v.members, resumeStepOf(v), cand.members, resumeStepOf(cand))
		}
	}
	if v == nil {
		return nil, fmt.Errorf("elastic: every rank of the %d-rank world failed; nothing left to recover", n)
	}
	out.verdict = v
	return out, nil
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

// errSabotaged marks a negotiation aborted by an injected second crash: the
// rank died inside the protocol and must exit silently, like any victim.
var errSabotaged = errors.New("elastic: injected crash inside negotiation")

// negotiate is the leader-coordinated membership agreement a survivor runs
// after its step fails with ErrRankDown. Probe-send the HELLO upward from
// rank 0: sends to dead ranks fail, so the first delivery finds the lowest
// live rank — the leader. A follower then waits for that leader's VERDICT,
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
	step := int64(-1) // no snapshot yet (a failure before the first capture)
	if ck != nil {
		step = ck.Step
	}
	var hello [helloLen]byte
	binary.LittleEndian.PutUint64(hello[:8], uint64(step))
	// A round can be burned by a stale socket electing an already-dead
	// leader before its down-marking lands, so allow a couple per rank.
	maxRounds := 2*ctrl.Size() + 2
	for round := 0; round < maxRounds; round++ {
		epoch := baseEpoch | uint64(round)
		binary.LittleEndian.PutUint64(hello[8:], epoch)
		leader := ctrl.Rank()
		for q := 0; q < ctrl.Rank(); q++ {
			if err := ctrl.Send(q, tagHello, hello[:]); err == nil {
				leader = q
				break
			}
			// Send failed: q is down. Keep probing upward.
		}
		if leader == ctrl.Rank() {
			return lead(ctrl, ck, epoch, die)
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
// (reported in their HELLOs, possibly one capture boundary ahead or behind
// after a failure landed mid-capture) never need to agree. A leader holding
// no snapshot yet — the failure beat the very first capture — issues a
// fresh-start verdict: the survivors begin again from step 0. A probed rank
// whose HELLO never arrives within the budget is evicted as unresponsive
// but still sent the verdict, so a wedged-but-live rank converges on the
// same membership (finding itself excluded).
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
		if len(b) != helloLen {
			mpi.PutBytes(b)
			return nil, fmt.Errorf("malformed hello from rank %d (%d bytes)", q, len(b))
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
		v, perr := parseVerdict(b)
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

func parseVerdict(b []byte) (*verdict, error) {
	if len(b) < 12 {
		return nil, errors.New("short verdict header")
	}
	epoch := binary.LittleEndian.Uint64(b)
	n := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	if n <= 0 || len(b) < 4*n+1 {
		return nil, fmt.Errorf("truncated verdict member list (%d members, %d bytes)", n, len(b))
	}
	members := make([]int, n)
	for i := range members {
		members[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
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

// rejoinersAt lists the identities scheduled to rejoin at global step s
// that are not currently members, sorted.
func rejoinersAt(cfg *Config, members []int, s int) []int {
	return joinersAt(cfg.Plan.RejoinAtStep, members, s)
}

// spareJoinsAt lists the spare identities scheduled for admission at global
// step s that are not currently members, sorted.
func spareJoinsAt(cfg *Config, members []int, s int) []int {
	return joinersAt(cfg.Plan.SpareJoinAtStep, members, s)
}

func joinersAt(sched map[int]int, members []int, s int) []int {
	var ids []int
	for id, js := range sched {
		if js != s {
			continue
		}
		present := false
		for _, m := range members {
			if m == id {
				present = true
				break
			}
		}
		if !present {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// mergeLosses folds one incarnation's per-rank losses into the global
// per-step mean. Every rank of an incarnation records the same step count
// (a crash fails the same step everywhere); recomputed steps overwrite the
// pre-crash values, which the deterministic batch dealing makes identical.
func mergeLosses(res *Result, out *incOut, resumeStep, ranks int) {
	steps := -1
	for _, l := range out.losses {
		if steps == -1 || len(l) < steps {
			steps = len(l)
		}
	}
	for i := 0; i < steps; i++ {
		var sum float64
		for r := 0; r < ranks; r++ {
			sum += out.losses[r][i]
		}
		res.Losses[resumeStep+i] = sum / float64(ranks)
	}
}

func epochOf(cfg *Config, step int) float64 {
	if cfg.Learner.StepsPerEpoch > 0 {
		return float64(step) / float64(cfg.Learner.StepsPerEpoch)
	}
	return 0
}

func diffIdentities(old, next []int) []int {
	keep := make(map[int]bool, len(next))
	for _, id := range next {
		keep[id] = true
	}
	var gone []int
	for _, id := range old {
		if !keep[id] {
			gone = append(gone, id)
		}
	}
	return gone
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
