// Package elastic is the training run loop: Algorithm 1 over a world of
// ranks. A run survives rank crashes by shrinking to the live membership,
// restoring from the latest rank-count-independent checkpoint, and resuming,
// and grows back through the same resize path when a crashed identity
// rejoins or a spare joins for the first time.
//
// The unit of execution is an incarnation: one world at the current
// membership size running the training loop from the resume step. A run
// whose Plan schedules no crash, join, drop or straggler is one incarnation
// and nothing more: it starts no failure monitor and captures no checkpoint,
// so it does exactly the fixed-world loop's work, and any step error ends
// it. The world is either in memory (Config.Transport "mem", the default,
// built by Config.NewWorld — a latency or topology world as well as a plain
// one — with the plan's faults injected into it) or real TCP loopback
// sockets ("tcp"). The training math, membership protocol, and checkpoint
// flow are identical, so the two transports produce bitwise-identical
// weights for the same seeded failure schedule.
//
// A resize keeps the run's shape:
//
//   - Topology. Learner.Topology must be uniform — every node but the last
//     holds k ranks — and each incarnation of n ranks routes over
//     mpi.UniformTopology(n, k). A NewWorld that lays its fabric out the
//     same way keeps the charged links in step with the routing.
//   - Data. Each incarnation asks NewSource for every rank's source at its
//     world size and resume step. A DIMD caller re-deals its shard from the
//     pack (dimd.LoadPartition): the pack is the durable copy of the data,
//     like the paper's file system, so a shrunken world still covers the
//     corpus. The loop shuffles a *core.DIMDSource's store every
//     ShuffleEvery global steps across the whole world, seeded by the step,
//     so the run stays deterministic.
//   - Batch. GlobalBatch is held constant: each incarnation deals the same
//     global batch sequence regardless of world size (core.SliceSource with
//     StartStep), so the post-recovery loss trajectory is comparable to a
//     failure-free run.
//
// Every rank of a faulty incarnation runs a heartbeat failure monitor
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
// an empty HELLO upward from rank 0 — sends to dead ranks fail, so the
// first successful send finds the lowest live rank, which becomes the
// leader (a survivor whose every lower rank is dead leads itself). The
// leader probes the higher ranks for liveness, collects their HELLOs (a
// HELLO's arrival is all it says), and broadcasts a VERDICT carrying the
// negotiation epoch, the new member list, and the leader's serialized
// checkpoint, which everyone resumes from.
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
package elastic

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/allreduce"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dimd"
	"repro/internal/mpi"
	"repro/internal/nn"
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

// HeartbeatPeriod is the failure monitor's base send period. A peer is
// suspected after Plan.DetectTimeout of silence, so suspicion and the
// receive timeout agree on what "too silent" means.
const HeartbeatPeriod = 50 * time.Millisecond

// Config describes a training run.
type Config struct {
	// Identities is the initial world size; trainer identities are
	// 0..Identities-1 and stay stable across resizes. Spare identities
	// (Plan.JoinAtStep) live above this range.
	Identities int
	// DevicesPerNode is the replica count per rank (default 1).
	DevicesPerNode int
	// GlobalBatch is the total batch per step, constant across resizes. It
	// must divide evenly by ranks·DevicesPerNode at every world size the
	// run passes through.
	GlobalBatch int
	// Steps is the total number of global steps to complete.
	Steps int
	// CheckpointEvery is the capture cadence in steps (default 1) of a
	// faulty run. An incarnation always captures at its resume step, so
	// there is a restorable snapshot before any crash can land.
	CheckpointEvery int
	// Transport selects the incarnation fabric: TransportMem (default) or
	// TransportTCP for real loopback sockets.
	Transport string
	// NewWorld builds each incarnation's in-memory world of the given rank
	// count (default mpi.NewWorld); the plan's faults are injected into what
	// it returns. TransportMem only.
	NewWorld func(ranks int) (*mpi.World, error)
	// NewReplica builds one model replica from a seed.
	NewReplica func(seed int64) nn.Layer
	// NewSource builds rank's batch source in an incarnation of ranks ranks
	// whose first step is the global step startStep.
	NewSource func(rank, ranks, startStep int) (core.BatchSource, error)
	// ShuffleEvery is the cadence in global steps of the DIMD shuffle (paper
	// Section 4.1) of a *core.DIMDSource's store; 0 never shuffles.
	ShuffleEvery           int
	InputC, InputH, InputW int
	// Learner is the core.Config template. BatchPerDevice is derived from
	// GlobalBatch per incarnation; GradScale should stay zero so the
	// learner rescales to 1/(ranks·devices) at each world size; Topology,
	// when set, is re-laid out per incarnation (see the package doc).
	Learner core.Config
	// Plan schedules the faults.
	Plan Plan
	// Eval, when set, runs once on rank 0's learner after the last step. It
	// must not communicate: the other ranks may already be gone.
	Eval func(l *core.Learner)
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

// RankResult is what one rank of the final incarnation ended the run with.
type RankResult struct {
	Weights   []float32 // flattened final model
	Phases    core.PhaseTimes
	CommStats allreduce.CompressedStats
	// OptStateBytes is the resident optimizer (momentum) state; ParamAGBytes
	// the sharded step's cumulative parameter-allgather wire bytes.
	OptStateBytes, ParamAGBytes int64
}

// Result is the outcome of a run that completed every step.
type Result struct {
	Steps        int       `json:"steps"`
	Incarnations int       `json:"incarnations"`
	Events       []Event   `json:"events"`
	Losses       []float64 `json:"losses"` // global mean loss per step
	FinalLoss    float64   `json:"final_loss"`
	// Ranks holds the final incarnation's ranks, in rank order.
	Ranks []RankResult `json:"-"`
	// Traffic is the final incarnation's wire bytes per link class (zeros
	// over TCP or a world without a link model).
	Traffic mpi.Traffic `json:"-"`
}

// incOut is everything one incarnation reports back to the orchestrator.
type incOut struct {
	done        bool
	kind        string // KindCrash or kindGrow when !done
	verdict     *verdict
	stopStep    int       // step the incarnation stopped at
	stoppedAt   time.Time // when the failure surfaced / boundary was hit
	firstStepAt time.Time // when the first step of this incarnation completed
	losses      [][]float64
	ranks       []RankResult
	traffic     mpi.Traffic
}

// Run executes the training loop to completion, surviving every scheduled
// crash and rejoin, and returns the stitched-together result.
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
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	if cfg.NewWorld == nil {
		cfg.NewWorld = func(n int) (*mpi.World, error) { return mpi.NewWorld(n), nil }
	}

	members := make([]int, cfg.Identities)
	for i := range members {
		members[i] = i
	}
	fired := make(map[int]bool) // identities whose crash already happened
	var snap *checkpoint.Checkpoint
	resumeStep := 0

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
			res.FinalLoss = res.Losses[cfg.Steps-1]
			res.Ranks, res.Traffic = out.ranks, out.traffic
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
				res.Events = append(res.Events, Event{
					Kind: KindCrash, Step: out.stopStep, Identity: id,
					OldWorld: len(members), NewWorld: len(next),
					ResumeStep: resume,
					StepsLost:  out.stopStep - resume,
				})
				pending = append(pending, len(res.Events)-1)
			}
		case kindGrow:
			joiners := joinersAt(&cfg, members, out.stopStep)
			next = append(append(next, members...), joiners...)
			for _, id := range joiners {
				kind := KindRejoin
				if id >= cfg.Identities {
					kind = KindSpare
				}
				res.Events = append(res.Events, Event{
					Kind: kind, Step: out.stopStep, Identity: id,
					OldWorld: len(members), NewWorld: len(next),
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

// runIncarnation runs one world at the current membership from resumeStep
// until the run completes, a crash fails a step, or a grow boundary (rejoin
// or spare admission) is reached.
func runIncarnation(cfg *Config, members []int, snap *checkpoint.Checkpoint, resumeStep int, fired map[int]bool, incarnation int) (*incOut, error) {
	n := len(members)
	if cfg.GlobalBatch%(n*cfg.DevicesPerNode) != 0 {
		return nil, fmt.Errorf("elastic: GlobalBatch %d does not divide across %d ranks × %d devices", cfg.GlobalBatch, n, cfg.DevicesPerNode)
	}
	baseEpoch := uint64(incarnation) << epochRoundBits
	faulty := !cfg.Plan.faultFree()

	cw, err := newClusterWorld(cfg, members, fired, incarnation, faulty)
	if err != nil {
		return nil, err
	}
	defer cw.close()

	lcfg := cfg.Learner
	lcfg.BatchPerDevice = cfg.GlobalBatch / (n * cfg.DevicesPerNode)
	lcfg.Topology = resized(lcfg.Topology, n)
	out := &incOut{losses: make([][]float64, n), ranks: make([]RankResult, n)}
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
		losses := make([]float64, 0, cfg.Steps-resumeStep)
		defer func() {
			mu.Lock()
			out.losses[rank] = losses
			mu.Unlock()
		}()
		var ctrl *mpi.Comm
		if faulty {
			// The negotiation sub-communicator is derived from the CONTROL
			// comm, not the training comm: an isolated context (no collision
			// with in-flight collectives) on the injection-free channel, so
			// the protocol that recovers from failures is not itself subject
			// to the injected message loss — over a real network, TCP
			// retransmission gives the control plane exactly that
			// reliability.
			var err error
			if ctrl, err = monC.Sub(all); err != nil {
				return err
			}
			// The heartbeat monitor: suspicion feeds the transport's local
			// down-marking, which is how a killed rank is detected over TCP
			// even when no survivor is blocked receiving from it.
			monitor := detect.NewMonitor(monC, detect.Config{
				Interval:     HeartbeatPeriod,
				SuspectAfter: cfg.Plan.DetectTimeout,
				Seed:         cfg.Plan.Seed,
				OnSuspect:    func(peer int) { cw.suspect(rank, peer) },
			})
			monitor.Start()
			defer monitor.Stop()
		}

		replicas := make([]nn.Layer, cfg.DevicesPerNode)
		for d := range replicas {
			replicas[d] = cfg.NewReplica(int64(rank*cfg.DevicesPerNode + d + 1))
		}
		src, err := cfg.NewSource(rank, n, resumeStep)
		if err != nil {
			return err
		}
		l, err := core.NewLearner(c, replicas, src, cfg.InputC, cfg.InputH, cfg.InputW, lcfg)
		if err != nil {
			return err
		}
		defer l.Close()
		// The DIMD shuffle runs on its own context over the whole world.
		var shuffle *mpi.Comm
		dimdSrc, _ := src.(*core.DIMDSource)
		if dimdSrc != nil && cfg.ShuffleEvery > 0 {
			if shuffle, err = c.Sub(all); err != nil {
				return err
			}
		}
		if snap != nil {
			if err := l.RestoreCheckpoint(snap); err != nil {
				return err
			}
		}
		ck := snap
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
			return nil
		}

		markFirst := func() {
			mu.Lock()
			out.firstStepAt = time.Now()
			mu.Unlock()
		}
		for s := resumeStep; s < cfg.Steps; s++ {
			if faulty {
				if len(joinersAt(cfg, members, s)) > 0 {
					// Voluntary incarnation boundary: checkpoint fresh at
					// this step (every rank evaluates the same condition, so
					// the collective capture lines up) and exit; the
					// orchestrator restarts the world with the grown
					// membership.
					ck2, err := l.CaptureCheckpoint(epochOf(cfg, s))
					if err != nil {
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
					return nil
				}
				// Capture at the cadence, plus once at the resume step so a
				// snapshot always exists before any crash can land. Crashes
				// fire at the top of a step, after this point — so a capture
				// in progress is never interrupted, and every rank's latest
				// successful snapshot is the same step.
				if (s%cfg.CheckpointEvery == 0 || s == resumeStep) && !(s == resumeStep && ck != nil) {
					ck2, err := l.CaptureCheckpoint(epochOf(cfg, s))
					if err != nil {
						// A failure can land mid-capture (the sharded gather
						// is a collective): recoverable like any step
						// failure. Every survivor restores from the
						// verdict's checkpoint — the leader's latest, or a
						// fresh start if the leader holds none yet — so a
						// rank whose own capture failed loses nothing.
						if errors.Is(err, mpi.ErrRankDown) {
							return recovery(s)
						}
						return fmt.Errorf("elastic: rank %d checkpoint at step %d: %w", rank, s, err)
					}
					ck = ck2
				}
				if err := cw.tick(rank, s); err != nil {
					return nil // this rank is the victim: die silently
				}
			}
			var loss float64
			var err error
			if shuffle != nil && s > 0 && s%cfg.ShuffleEvery == 0 {
				err = dimdSrc.Store.Shuffle(shuffle, dimd.ShuffleOptions{Seed: int64(s)})
			}
			if err == nil {
				loss, err = l.Step()
			}
			if err != nil {
				if faulty && errors.Is(err, mpi.ErrRankDown) {
					return recovery(s)
				}
				return fmt.Errorf("elastic: rank %d step %d: %w", rank, s, err)
			}
			losses = append(losses, loss)
			firstStep.Do(markFirst)
		}
		mu.Lock()
		doneRanks++
		mu.Unlock()
		if rank == 0 && cfg.Eval != nil {
			cfg.Eval(l)
		}
		w, err := l.FlatWeights()
		if err != nil {
			return err
		}
		out.ranks[rank] = RankResult{
			Weights: w, Phases: l.Phases(), CommStats: l.CommStats(),
			OptStateBytes: l.OptimizerStateBytes(), ParamAGBytes: l.ParamAllGatherBytes(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.traffic = cw.traffic()

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
		if resumeStepOf(cand) != resumeStepOf(v) || !slices.Equal(v.members, cand.members) {
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
	var gone []int
	for _, id := range old {
		if !slices.Contains(next, id) {
			gone = append(gone, id)
		}
	}
	return gone
}
