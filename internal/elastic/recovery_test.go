package elastic

import (
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
)

// The second failure lands inside the recovery of the first: the crash at
// step 3 triggers a negotiation, and identity 0 — the lowest rank, hence
// the elected leader — dies mid-leadership, after collecting every HELLO
// and before broadcasting the verdict. The survivors must detect the
// leader's death, advance an election round, re-elect the next live rank,
// and converge on a membership that excludes BOTH victims.
func TestElasticLeaderCrashMidNegotiationReElects(t *testing.T) {
	cfg := baseConfig()
	cfg.Plan.CrashAtStep = map[int]int{3: 3}
	cfg.Plan.CrashInNegotiation = map[int]int{0: 3}
	res := runElastic(t, cfg)

	if res.Incarnations != 2 {
		t.Fatalf("incarnations=%d, want 2: both victims must fall in ONE recovery", res.Incarnations)
	}
	if len(res.Events) != 2 {
		t.Fatalf("events %+v, want two crashes", res.Events)
	}
	gone := map[int]bool{}
	for _, ev := range res.Events {
		if ev.Kind != KindCrash || ev.Step != 3 || ev.OldWorld != 4 || ev.NewWorld != 2 {
			t.Fatalf("event %+v, want a crash at step 3 shrinking 4→2", ev)
		}
		gone[ev.Identity] = true
	}
	if !gone[0] || !gone[3] {
		t.Fatalf("crashed identities %v, want 0 (the mid-negotiation leader) and 3", gone)
	}
	requireAllLossesRecorded(t, res)
	requireSurvivorsAgree(t, res)
}

// A follower dying on its way into the negotiation must be excluded from
// the verdict without ever having announced itself.
func TestElasticFollowerCrashEnteringNegotiation(t *testing.T) {
	cfg := baseConfig()
	cfg.Plan.CrashAtStep = map[int]int{1: 2}
	cfg.Plan.CrashInNegotiation = map[int]int{2: 2}
	res := runElastic(t, cfg)

	if res.Incarnations != 2 || len(res.Events) != 2 {
		t.Fatalf("incarnations=%d events=%+v, want one recovery dropping two identities", res.Incarnations, res.Events)
	}
	for _, ev := range res.Events {
		if ev.NewWorld != 2 {
			t.Fatalf("event %+v, want the world shrinking to 2", ev)
		}
	}
	requireAllLossesRecorded(t, res)
}

// A rank that crashes after applying the restored checkpoint but before
// completing a single step exercises the crash-after-restore-before-ACK
// window: the survivors must restore the SAME checkpoint again (restore is
// idempotent — the snapshot is full-state), and the victim rejoins at the
// very step it died on.
func TestElasticCrashDuringRestoreIsIdempotent(t *testing.T) {
	cfg := baseConfig()
	cfg.Plan.CrashAtStep = map[int]int{2: 3}
	cfg.Plan.CrashInRestore = map[int]int{1: 3}
	cfg.Plan.JoinAtStep = map[int]int{1: 3}
	res := runElastic(t, cfg)

	// Incarnations: 4 ranks crash@3 → 3 ranks die-in-restore@3 → 2 ranks
	// hit the rejoin boundary at step 3 before stepping → 3 ranks finish.
	if res.Incarnations != 4 {
		t.Fatalf("incarnations=%d, want 4", res.Incarnations)
	}
	if len(res.Events) != 3 {
		t.Fatalf("events %+v, want crash, restore-crash, rejoin", res.Events)
	}
	first, second, third := res.Events[0], res.Events[1], res.Events[2]
	if first.Kind != KindCrash || first.Identity != 2 || first.ResumeStep != 3 {
		t.Fatalf("first event %+v, want identity 2 crashing with resume at 3", first)
	}
	if second.Kind != KindCrash || second.Identity != 1 || second.ResumeStep != 3 || second.StepsLost != 0 {
		t.Fatalf("second event %+v, want identity 1 dying in restore at step 3, zero steps lost", second)
	}
	if third.Kind != KindRejoin || third.Identity != 1 || third.Step != 3 || third.ResumeStep != 3 {
		t.Fatalf("third event %+v, want identity 1 rejoining into the same resume step 3", third)
	}
	requireAllLossesRecorded(t, res)
	requireSurvivorsAgree(t, res)
}

// A spare — an identity above the initial range, never a member, never
// crashed — joins at its scheduled step through the same grow path a rejoin
// uses, and the event says which of the two it was.
func TestElasticSpareAdmittedWithoutPriorCrash(t *testing.T) {
	cfg := baseConfig()
	cfg.Identities = 3 // global batch 12 divides both 3 and 4 ranks
	cfg.Plan.JoinAtStep = map[int]int{3: 4}
	res := runElastic(t, cfg)

	if res.Incarnations != 2 || len(res.Events) != 1 {
		t.Fatalf("incarnations=%d events=%+v, want exactly one spare admission", res.Incarnations, res.Events)
	}
	ev := res.Events[0]
	if ev.Kind != KindSpare || ev.Identity != 3 || ev.Step != 4 || ev.OldWorld != 3 || ev.NewWorld != 4 {
		t.Fatalf("event %+v, want spare identity 3 admitted at step 4 growing 3→4", ev)
	}
	if ev.RecoverySec <= 0 {
		t.Fatalf("spare admission latency %v, want > 0", ev.RecoverySec)
	}
	requireAllLossesRecorded(t, res)
}

// A spare admission and a crash compose: the spare keeps the world at
// strength after a victim falls.
func TestElasticSpareBackfillsAfterCrash(t *testing.T) {
	cfg := baseConfig()
	cfg.Plan.CrashAtStep = map[int]int{2: 2}
	cfg.Plan.JoinAtStep = map[int]int{4: 5}
	res := runElastic(t, cfg)

	if res.Incarnations != 3 || len(res.Events) != 2 {
		t.Fatalf("incarnations=%d events=%+v, want a crash then a spare admission", res.Incarnations, res.Events)
	}
	crash, spare := res.Events[0], res.Events[1]
	if crash.Kind != KindCrash || crash.NewWorld != 3 {
		t.Fatalf("first event %+v, want a crash shrinking to 3", crash)
	}
	if spare.Kind != KindSpare || spare.Identity != 4 || spare.OldWorld != 3 || spare.NewWorld != 4 {
		t.Fatalf("second event %+v, want spare 4 restoring the world to 4", spare)
	}
	requireAllLossesRecorded(t, res)
}

// awaitVerdict must drop a stale leader's verdict — one minted in a
// different incarnation's negotiation — and keep waiting for a verdict from
// the negotiation it is actually in.
func TestElasticStaleVerdictRejected(t *testing.T) {
	ck, err := checkpoint.Capture(nil, nil, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	const base = uint64(3) << epochRoundBits
	stale, err := encodeVerdict(uint64(2)<<epochRoundBits|7, []int{0, 1}, ck)
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodeVerdict(base|1, []int{0}, ck)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(2)
	defer w.Close()
	err = w.Run(func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			if err := c.Send(0, tagVerdict, stale); err != nil {
				return err
			}
			return c.Send(0, tagVerdict, good)
		}
		v, err := awaitVerdict(c, 1, base)
		if err != nil {
			return err
		}
		if v.epoch != base|1 || len(v.members) != 1 || v.members[0] != 0 {
			t.Errorf("accepted verdict %+v, want the epoch-%#x one", v, base|1)
		}
		if v.ck.Step != 5 {
			t.Errorf("verdict checkpoint step %d, want 5", v.ck.Step)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round skew within the same incarnation is legitimate; a different
	// incarnation is not.
	if !sameNegotiation(base|9, base) || sameNegotiation(uint64(4)<<epochRoundBits, base) {
		t.Fatal("epoch base matching is wrong")
	}
}

// Recovery-phase fault schedules must stay deterministic: two identical
// runs with a leader dying mid-negotiation produce identical trajectories.
func TestElasticNegotiationCrashDeterministic(t *testing.T) {
	make1 := func() *Result {
		cfg := baseConfig()
		cfg.Plan.CrashAtStep = map[int]int{3: 3}
		cfg.Plan.CrashInNegotiation = map[int]int{0: 3}
		return runElastic(t, cfg)
	}
	a, b := make1(), make1()
	for s := range a.Losses {
		if a.Losses[s] != b.Losses[s] {
			t.Fatalf("step %d loss differs across identical runs: %v vs %v", s, a.Losses[s], b.Losses[s])
		}
	}
	if !slices.Equal(a.Ranks[0].Weights, b.Ranks[0].Weights) {
		t.Fatal("weights differ across identical runs")
	}
}

// Validation must reject fault schedules the protocol cannot honor.
func TestElasticValidatesRecoveryPlans(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Transport = "quic" },
		func(c *Config) { c.Transport = TransportTCP; c.Plan.DropProb = 0.1 },
		func(c *Config) {
			c.Transport = TransportTCP
			c.Plan.Slow = map[int]mpi.LinkProfile{0: {Latency: time.Millisecond}}
		},
		func(c *Config) {
			c.Plan.CrashAtStep = map[int]int{1: 2}
			c.Plan.CrashInNegotiation = map[int]int{1: 2}
		},
		func(c *Config) {
			c.Plan.CrashInNegotiation = map[int]int{1: 2}
			c.Plan.CrashInRestore = map[int]int{1: 2}
		},
		func(c *Config) { c.Plan.JoinAtStep = map[int]int{2: 3} },  // a member that never crashed
		func(c *Config) { c.Plan.JoinAtStep = map[int]int{9: 99} }, // a spare joining past the run
		func(c *Config) {
			c.Plan.CrashInRestore = map[int]int{1: 4}
			c.Plan.JoinAtStep = map[int]int{1: 3} // before the restore crash
		},
		func(c *Config) { c.Plan.JoinAtStep = map[int]int{1: 3} }, // never crashes
		func(c *Config) { c.NewSource = nil },
		func(c *Config) { c.Learner.Topology = mpi.Topology{Node: []int{0, 1, 1, 1}} }, // not uniform
		func(c *Config) { c.Learner.Topology = mpi.UniformTopology(6, 2) },             // not the world
		func(c *Config) {
			c.Transport = TransportTCP
			c.NewWorld = func(n int) (*mpi.World, error) { return mpi.NewWorld(n), nil }
		},
	}
	for i, mutate := range bad {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad plan %d was accepted", i)
		}
	}
}
