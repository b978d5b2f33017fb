package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// chaosStep is one step of the post-resync loss trajectory: the chaos run's
// loss next to the failure-free baseline's at the same step. With the global
// batch held constant across resizes the two runs consume identical data, so
// the delta isolates what the crashes and recoveries cost.
type chaosStep struct {
	Step     int     `json:"step"`
	Loss     float64 `json:"loss"`
	Baseline float64 `json:"baseline_loss"`
	Delta    float64 `json:"delta"`
}

// What every chaos run holds fixed.
const (
	// chaosTolerance is the gate: the allowed relative drift of the final
	// loss from the failure-free run's.
	chaosTolerance = 0.1
	// chaosKillEvery is the number of steps between rank kills; each victim
	// is backfilled two steps after its crash.
	chaosKillEvery = 5
	// chaosCodec is the gradient wire format of both the chaos run and its
	// baseline: the gate measures crash damage, not compression error.
	chaosCodec = "none"
)

// chaosOpts parameterizes one chaos run.
type chaosOpts struct {
	seed     int64
	learners int
	steps    int
	// scenario: "kill" (plain crashes), "kill-negotiation" (a second victim
	// dies inside the membership negotiation), "kill-restore" (a second
	// victim dies after applying the restored checkpoint), or "netsplit"
	// (crashes under seeded message loss, mailbox transport only).
	scenario string
	// transport: "mem" or "tcp" for real loopback sockets.
	transport string
	jsonPath  string
}

// chaosReport is the JSON schema of the chaos workload; CI uploads one per
// scenario×transport cell as the chaos.json artifact and gates on Passed.
type chaosReport struct {
	Workload           string          `json:"workload"`
	Scenario           string          `json:"scenario"`
	Transport          string          `json:"transport"`
	Codec              string          `json:"codec"`
	Seed               int64           `json:"seed"`
	Learners           int             `json:"learners"`
	GlobalBatch        int             `json:"global_batch"`
	Steps              int             `json:"steps"`
	KillEvery          int             `json:"kill_every"`
	Rejoin             bool            `json:"rejoin"`
	Spares             int             `json:"spares"`
	DetectTimeoutSec   float64         `json:"detect_timeout_sec"`
	HeartbeatPeriodSec float64         `json:"heartbeat_interval_sec"`
	SuspectAfterSec    float64         `json:"suspect_after_sec"`
	Tolerance          float64         `json:"tolerance"`
	Incarnations       int             `json:"incarnations"`
	Events             []elastic.Event `json:"events"`
	EventsByKind       map[string]int  `json:"events_by_kind"`
	StepsLostByKind    map[string]int  `json:"steps_lost_by_kind"`
	TotalStepsLost     int             `json:"total_steps_lost"`
	RecoveryP50Sec     float64         `json:"recovery_p50_sec"`
	RecoveryP99Sec     float64         `json:"recovery_p99_sec"`
	MaxRecoverySec     float64         `json:"max_recovery_sec"`
	FinalLoss          float64         `json:"final_loss"`
	BaselineFinalLoss  float64         `json:"baseline_final_loss"`
	FinalLossDeltaRel  float64         `json:"final_loss_delta_rel"`
	PostResync         []chaosStep     `json:"post_resync"`
	Passed             bool            `json:"passed"`
}

// chaosPlan builds the fault schedule for one scenario. The plain kill
// schedule murders the highest identities first, one every chaosKillEvery
// steps, leaving identity 0 alive to the end. The recovery-phase scenarios
// land a SECOND victim inside the recovery of the first — in the membership
// negotiation or in the restore window. Unless rejoin is off, each victim
// rejoins two steps after its loss.
func chaosPlan(o chaosOpts, rejoin bool, globalBatch int) (elastic.Plan, error) {
	plan := elastic.Plan{
		Seed:               o.seed,
		CrashAtStep:        map[int]int{},
		CrashInNegotiation: map[int]int{},
		CrashInRestore:     map[int]int{},
		JoinAtStep:         map[int]int{},
		DetectTimeout:      2 * time.Second,
	}
	if o.steps <= chaosKillEvery {
		return plan, fmt.Errorf("benchtool: chaos kills its first rank at step %d and this run has %d steps; lengthen it", chaosKillEvery, o.steps)
	}
	backfill := func(victim, step int) {
		if rejoin && step+2 < o.steps {
			plan.JoinAtStep[victim] = step + 2
		}
	}

	switch o.scenario {
	case "kill", "netsplit":
		if o.scenario == "netsplit" {
			if o.transport == elastic.TransportTCP {
				return plan, fmt.Errorf("benchtool: the netsplit scenario needs the mailbox transport (TCP cannot drop messages deterministically)")
			}
			// A flaky partition: every training-plane link loses this
			// fraction of its messages, chosen by the seed. Lost messages
			// surface as detection timeouts and force spurious recoveries
			// on top of the real kills.
			plan.DropProb = 0.01
		}
		step := chaosKillEvery
		for id := o.learners - 1; id >= 1 && step < o.steps; id-- {
			plan.CrashAtStep[id] = step
			backfill(id, step)
			step += chaosKillEvery
		}
	case "kill-negotiation", "kill-restore":
		if o.learners < 3 {
			return plan, fmt.Errorf("benchtool: scenario %s kills two ranks at once and needs >= 3 learners", o.scenario)
		}
		if rest := o.learners - 2; globalBatch%rest != 0 {
			return plan, fmt.Errorf("benchtool: scenario %s shrinks the world to %d ranks, which does not divide the fixed global batch %d", o.scenario, rest, globalBatch)
		}
		first, second := o.learners-1, o.learners-2
		plan.CrashAtStep[first] = chaosKillEvery
		if o.scenario == "kill-negotiation" {
			plan.CrashInNegotiation[second] = chaosKillEvery
		} else {
			// Per-step capture cadence: the recovery resumes at the crash
			// step itself, which is where the restore-window victim dies.
			plan.CrashInRestore[second] = chaosKillEvery
		}
		backfill(first, chaosKillEvery)
		backfill(second, chaosKillEvery)
	default:
		return plan, fmt.Errorf("benchtool: unknown chaos scenario %q (want kill, kill-negotiation, kill-restore, or netsplit)", o.scenario)
	}
	return plan, nil
}

// percentile returns the p-th percentile (0..100) of sorted latencies.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// chaosWorkload runs the elastic recovery protocol under a deterministic
// fault scenario — rank kills, second failures landing inside the recovery
// phases, or crashes under message loss, over the mailbox or real TCP
// loopback sockets — next to a failure-free run of the identical job, and
// gates on the damage staying within tolerance. The global batch is fixed
// at 12 (divisible by every world size the schedules pass through), so both
// runs see the same data stream and the post-resync loss trajectory is
// directly comparable. A crash mid-protocol, a recovery that deadlocks, or
// a final loss drifting more than tolerance (relative) from the baseline
// all exit nonzero — the CI chaos gate.
func chaosWorkload(o chaosOpts) error {
	const classes, size, images, globalBatch = 4, 8, 72, 12
	if o.learners < 2 || globalBatch%o.learners != 0 {
		return fmt.Errorf("benchtool: chaos needs 2..%d learners dividing the fixed global batch (got %d)", globalBatch, o.learners)
	}
	// Backfill is disabled under message loss: growing the world requires a
	// clean collective checkpoint at the boundary, which a lossy fabric
	// cannot promise.
	rejoin := o.scenario != "netsplit"
	plan, err := chaosPlan(o, rejoin, globalBatch)
	if err != nil {
		return err
	}

	dataX, dataLabels := core.SyntheticTensorData(images, classes, size, 23)
	baseCfg := func(plan elastic.Plan) elastic.Config {
		return elastic.Config{
			Identities:  o.learners,
			GlobalBatch: globalBatch,
			Steps:       o.steps,
			Transport:   o.transport,
			NewReplica:  func(s int64) nn.Layer { return core.SmallBNFreeCNN(classes, size, 500+s) },
			NewSource:   core.SliceSources(dataX, dataLabels),
			InputC:      3, InputH: size, InputW: size,
			Learner: core.Config{
				Schedule:       sgd.Const(0.05),
				SGD:            sgd.DefaultConfig(),
				Compression:    compress.Config{Codec: chaosCodec},
				ShardOptimizer: true,
			},
			Plan: plan,
		}
	}

	baselinePlan := elastic.Plan{}
	if o.scenario == "netsplit" {
		// The baseline for a netsplit is the same flaky fabric without the
		// kills: drops alone must not change the math (they only delay).
		baselinePlan.Seed = o.seed
		baselinePlan.DropProb = plan.DropProb
		baselinePlan.DetectTimeout = plan.DetectTimeout
	}
	baseline, err := elastic.Run(baseCfg(baselinePlan))
	if err != nil {
		return fmt.Errorf("benchtool: chaos failure-free baseline: %w", err)
	}
	chaos, err := elastic.Run(baseCfg(plan))
	if err != nil {
		return fmt.Errorf("benchtool: chaos run failed to complete: %w", err)
	}

	rep := chaosReport{
		Workload:           "chaos",
		Scenario:           o.scenario,
		Transport:          o.transport,
		Codec:              chaosCodec,
		Seed:               o.seed,
		Learners:           o.learners,
		GlobalBatch:        globalBatch,
		Steps:              o.steps,
		KillEvery:          chaosKillEvery,
		Rejoin:             rejoin,
		DetectTimeoutSec:   plan.DetectTimeout.Seconds(),
		HeartbeatPeriodSec: elastic.HeartbeatPeriod.Seconds(),
		Tolerance:          chaosTolerance,
		Incarnations:       chaos.Incarnations,
		Events:             chaos.Events,
		EventsByKind:       map[string]int{},
		StepsLostByKind:    map[string]int{},
		FinalLoss:          chaos.FinalLoss,
	}
	lastResync := 0
	var recoveries []float64
	for _, ev := range chaos.Events {
		rep.TotalStepsLost += ev.StepsLost
		rep.EventsByKind[ev.Kind]++
		rep.StepsLostByKind[ev.Kind] += ev.StepsLost
		recoveries = append(recoveries, ev.RecoverySec)
		if ev.RecoverySec > rep.MaxRecoverySec {
			rep.MaxRecoverySec = ev.RecoverySec
		}
		if ev.ResumeStep > lastResync {
			lastResync = ev.ResumeStep
		}
	}
	sort.Float64s(recoveries)
	rep.RecoveryP50Sec = percentile(recoveries, 50)
	rep.RecoveryP99Sec = percentile(recoveries, 99)
	for s := lastResync; s < o.steps && s < len(chaos.Losses) && s < len(baseline.Losses); s++ {
		rep.PostResync = append(rep.PostResync, chaosStep{
			Step:     s,
			Loss:     chaos.Losses[s],
			Baseline: baseline.Losses[s],
			Delta:    chaos.Losses[s] - baseline.Losses[s],
		})
	}
	rep.BaselineFinalLoss = baseline.FinalLoss
	rep.FinalLossDeltaRel = math.Abs(chaos.FinalLoss-baseline.FinalLoss) / math.Abs(baseline.FinalLoss)
	rep.Passed = rep.FinalLossDeltaRel <= chaosTolerance

	fmt.Printf("chaos workload: scenario=%s transport=%s codec=%s seed=%d learners=%d steps=%d kill-every=%d rejoin=%v batch=%d\n",
		o.scenario, o.transport, chaosCodec, o.seed, o.learners, o.steps, chaosKillEvery, rejoin, globalBatch)
	for _, ev := range chaos.Events {
		fmt.Printf("  %-6s identity %d at step %2d: world %d→%d, resumed at step %d (%d steps lost, recovery %.3fs)\n",
			ev.Kind, ev.Identity, ev.Step, ev.OldWorld, ev.NewWorld, ev.ResumeStep, ev.StepsLost, ev.RecoverySec)
	}
	fmt.Printf("  incarnations: %d   steps lost: %d %v   recovery p50/p99/max: %.3fs/%.3fs/%.3fs\n",
		rep.Incarnations, rep.TotalStepsLost, rep.StepsLostByKind, rep.RecoveryP50Sec, rep.RecoveryP99Sec, rep.MaxRecoverySec)
	fmt.Printf("  final loss: %.6f vs failure-free %.6f (relative delta %.4f, tolerance %.4f)\n",
		rep.FinalLoss, rep.BaselineFinalLoss, rep.FinalLossDeltaRel, rep.Tolerance)

	if err := writeReport(o.jsonPath, "BENCH_chaos.*.json", rep); err != nil {
		return err
	}
	if !rep.Passed {
		return fmt.Errorf("benchtool: chaos run drifted %.4f (relative) from the failure-free loss, tolerance %.4f",
			rep.FinalLossDeltaRel, chaosTolerance)
	}
	return nil
}
