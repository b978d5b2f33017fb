package elastic

import (
	"slices"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sgd"
)

// baseConfig is a 4-identity sharded-optimizer run: 8 global steps over a
// constant global batch of 12, which divides every world size the tests
// pass through (1, 2, 3, 4).
func baseConfig() Config {
	x, labels := core.SyntheticTensorData(72, 4, 8, 1)
	return Config{
		Identities:  4,
		GlobalBatch: 12,
		Steps:       8,
		NewReplica:  func(seed int64) nn.Layer { return core.SmallBNFreeCNN(4, 8, seed) },
		NewSource:   core.SliceSources(x, labels),
		InputC:      3, InputH: 8, InputW: 8,
		// Keep the failure detector snappy in tests: ranks that race past the
		// victim's crash into a collective recv give up after 2s instead of
		// the 5s production default.
		Plan: Plan{DetectTimeout: 2 * time.Second},
		Learner: core.Config{
			Schedule:       sgd.Const(0.05),
			SGD:            sgd.DefaultConfig(),
			Compression:    compress.Config{Codec: "none"},
			ShardOptimizer: true,
		},
	}
}

// runElastic drives Run under a deadline: recovery must never deadlock.
func runElastic(t *testing.T, cfg Config) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(120 * time.Second):
		t.Fatal("elastic run deadlocked")
		return nil
	}
}

func requireAllLossesRecorded(t *testing.T, res *Result) {
	t.Helper()
	for s, l := range res.Losses {
		if l <= 0 {
			t.Fatalf("step %d has no recorded loss (%v)", s, l)
		}
	}
}

// requireSurvivorsAgree fails unless the final world's ranks all hold the
// same, non-empty weights.
func requireSurvivorsAgree(t *testing.T, res *Result) {
	t.Helper()
	if len(res.Ranks) == 0 || len(res.Ranks[0].Weights) == 0 {
		t.Fatal("no final weights reported")
	}
	for r, rr := range res.Ranks[1:] {
		if !slices.Equal(rr.Weights, res.Ranks[0].Weights) {
			t.Fatalf("survivor %d's weights differ from survivor 0's", r+1)
		}
	}
}

// A mid-run crash must shrink the world, restore from the latest snapshot,
// and complete every remaining step at the smaller size.
func TestElasticCrashShrinksWorldAndCompletes(t *testing.T) {
	cfg := baseConfig()
	cfg.Plan.CrashAtStep = map[int]int{2: 3}
	res := runElastic(t, cfg)

	if res.Steps != cfg.Steps || res.Incarnations != 2 {
		t.Fatalf("steps=%d incarnations=%d, want %d and 2", res.Steps, res.Incarnations, cfg.Steps)
	}
	if len(res.Events) != 1 {
		t.Fatalf("events %+v, want exactly one crash", res.Events)
	}
	ev := res.Events[0]
	if ev.Kind != KindCrash || ev.Identity != 2 || ev.Step != 3 || ev.OldWorld != 4 || ev.NewWorld != 3 {
		t.Fatalf("crash event %+v, want identity 2 at step 3 shrinking 4→3", ev)
	}
	// Per-step checkpoint cadence: the snapshot at the crash step itself
	// was captured before the victim died, so no steps are recomputed.
	if ev.ResumeStep != 3 || ev.StepsLost != 0 {
		t.Fatalf("crash event %+v, want resume at step 3 with 0 steps lost", ev)
	}
	if ev.RecoverySec <= 0 {
		t.Fatalf("recovery latency %v, want > 0", ev.RecoverySec)
	}
	requireAllLossesRecorded(t, res)
	requireSurvivorsAgree(t, res)
}

// With a sparser checkpoint cadence the run resumes from the last capture
// boundary and recomputes the steps in between.
func TestElasticResizeRecomputesFromLastCheckpoint(t *testing.T) {
	cfg := baseConfig()
	cfg.CheckpointEvery = 3
	cfg.Plan.CrashAtStep = map[int]int{1: 5}
	res := runElastic(t, cfg)

	ev := res.Events[0]
	if ev.ResumeStep != 3 || ev.StepsLost != 2 {
		t.Fatalf("crash event %+v, want resume at step 3 (cadence 3) with 2 steps lost", ev)
	}
	requireAllLossesRecorded(t, res)
}

// Killing rank 0 — the default negotiation leader — must elect the next
// live rank to coordinate the verdict.
func TestElasticRankDownLeaderElectsSuccessor(t *testing.T) {
	cfg := baseConfig()
	cfg.Plan.CrashAtStep = map[int]int{0: 2}
	res := runElastic(t, cfg)

	if res.Incarnations != 2 || len(res.Events) != 1 {
		t.Fatalf("incarnations=%d events=%+v, want one recovery", res.Incarnations, res.Events)
	}
	if ev := res.Events[0]; ev.Identity != 0 || ev.NewWorld != 3 {
		t.Fatalf("crash event %+v, want identity 0 shrinking to world 3", ev)
	}
	requireAllLossesRecorded(t, res)
}

// A crashed identity scheduled to rejoin grows the world back through the
// same resize path a crash shrinks it with.
func TestElasticRejoinGrowsWorldBack(t *testing.T) {
	cfg := baseConfig()
	cfg.Steps = 10
	cfg.Plan.CrashAtStep = map[int]int{1: 3}
	cfg.Plan.JoinAtStep = map[int]int{1: 6}
	res := runElastic(t, cfg)

	if res.Incarnations != 3 || len(res.Events) != 2 {
		t.Fatalf("incarnations=%d events=%+v, want crash then rejoin", res.Incarnations, res.Events)
	}
	crash, rejoin := res.Events[0], res.Events[1]
	if crash.Kind != KindCrash || crash.NewWorld != 3 {
		t.Fatalf("first event %+v, want a crash shrinking to 3", crash)
	}
	if rejoin.Kind != KindRejoin || rejoin.Identity != 1 || rejoin.Step != 6 ||
		rejoin.OldWorld != 3 || rejoin.NewWorld != 4 {
		t.Fatalf("second event %+v, want identity 1 rejoining at step 6 growing 3→4", rejoin)
	}
	if rejoin.ResumeStep != 6 || rejoin.StepsLost != 0 {
		t.Fatalf("rejoin event %+v, want a fresh boundary checkpoint at step 6", rejoin)
	}
	if rejoin.RecoverySec <= 0 {
		t.Fatalf("rejoin recovery latency %v, want > 0", rejoin.RecoverySec)
	}
	requireAllLossesRecorded(t, res)
}

// A two-rank world losing one rank must finish solo: the collectives
// degenerate cleanly at world size 1.
func TestElasticResizeToSingleRank(t *testing.T) {
	cfg := baseConfig()
	cfg.Identities = 2
	cfg.Steps = 5
	cfg.Plan.CrashAtStep = map[int]int{1: 2}
	res := runElastic(t, cfg)

	if ev := res.Events[0]; ev.NewWorld != 1 {
		t.Fatalf("crash event %+v, want world shrinking to 1", ev)
	}
	requireAllLossesRecorded(t, res)
}

// The replicated (non-sharded) engine recovers through the same protocol;
// its checkpoint capture is purely local.
func TestElasticReplicatedModeRecovers(t *testing.T) {
	cfg := baseConfig()
	cfg.Learner.ShardOptimizer = false
	cfg.Plan.CrashAtStep = map[int]int{3: 4}
	res := runElastic(t, cfg)

	if res.Incarnations != 2 || res.Events[0].Identity != 3 {
		t.Fatalf("incarnations=%d events=%+v, want one recovery of identity 3", res.Incarnations, res.Events)
	}
	requireAllLossesRecorded(t, res)
}

// Multi-device ranks resize like single-device ones; the global batch
// re-splits across ranks × devices at the new world size.
func TestElasticFaultRecoveryMultiDevice(t *testing.T) {
	cfg := baseConfig()
	cfg.DevicesPerNode = 2
	cfg.GlobalBatch = 24
	cfg.Plan.CrashAtStep = map[int]int{2: 3}
	res := runElastic(t, cfg)

	if res.Incarnations != 2 || res.Events[0].NewWorld != 3 {
		t.Fatalf("incarnations=%d events=%+v, want one shrink to 3 ranks", res.Incarnations, res.Events)
	}
	requireAllLossesRecorded(t, res)
}

// Two identical elastic runs — same seed, same faults — must produce
// identical loss trajectories: the fault injection, batch dealing, and
// recovery protocol are all deterministic.
func TestElasticChaosRunsAreDeterministic(t *testing.T) {
	make2 := func() *Result {
		cfg := baseConfig()
		cfg.Steps = 10
		cfg.Plan.CrashAtStep = map[int]int{2: 3}
		cfg.Plan.JoinAtStep = map[int]int{2: 7}
		return runElastic(t, cfg)
	}
	a, b := make2(), make2()
	if len(a.Losses) != len(b.Losses) {
		t.Fatalf("loss lengths differ: %d vs %d", len(a.Losses), len(b.Losses))
	}
	for s := range a.Losses {
		if a.Losses[s] != b.Losses[s] {
			t.Fatalf("step %d loss differs across identical runs: %v vs %v", s, a.Losses[s], b.Losses[s])
		}
	}
	if a.FinalLoss != b.FinalLoss {
		t.Fatalf("final losses differ: %v vs %v", a.FinalLoss, b.FinalLoss)
	}
}
