package elastic

import (
	"slices"
	"testing"
)

// tcpTestConfig is baseConfig over loopback sockets: the monitor suspects a
// silent peer after the same 2s the receives time out after.
func tcpTestConfig() Config {
	cfg := baseConfig()
	cfg.Transport = TransportTCP
	return cfg
}

// A rank killed over real TCP sockets must be detected and recovered from:
// its endpoint closes like a dead process, and the survivors converge on
// the shrunken membership via socket errors, receive timeouts, and
// heartbeat suspicion — no survivor needs to be blocked receiving from the
// victim for detection to work.
func TestElasticTCPCrashRecovers(t *testing.T) {
	cfg := tcpTestConfig()
	cfg.Steps = 6
	cfg.Plan.CrashAtStep = map[int]int{1: 2}
	res := runElastic(t, cfg)

	if res.Incarnations != 2 || len(res.Events) != 1 {
		t.Fatalf("incarnations=%d events=%+v, want one recovery", res.Incarnations, res.Events)
	}
	ev := res.Events[0]
	if ev.Kind != KindCrash || ev.Identity != 1 || ev.NewWorld != 3 {
		t.Fatalf("event %+v, want identity 1 crashing to a 3-rank world", ev)
	}
	if ev.RecoverySec <= 0 {
		t.Fatalf("recovery latency %v, want > 0", ev.RecoverySec)
	}
	requireAllLossesRecorded(t, res)
}

// The same seeded failure schedule over the mailbox transport and over real
// TCP sockets must produce bitwise-identical results: the fabric carries
// the bytes, the protocol and the math are transport-independent.
func TestElasticTCPRecoveryBitwiseMatchesMailbox(t *testing.T) {
	run := func(transport string) *Result {
		cfg := baseConfig()
		cfg.Transport = transport
		cfg.Steps = 6
		cfg.Plan.CrashAtStep = map[int]int{1: 2}
		return runElastic(t, cfg)
	}
	mem, tcp := run(TransportMem), run(TransportTCP)
	if mem.Incarnations != tcp.Incarnations {
		t.Fatalf("incarnations differ: mem=%d tcp=%d", mem.Incarnations, tcp.Incarnations)
	}
	if len(mem.Events) != len(tcp.Events) {
		t.Fatalf("event counts differ: mem=%+v tcp=%+v", mem.Events, tcp.Events)
	}
	for i := range mem.Events {
		m, c := mem.Events[i], tcp.Events[i]
		if m.Kind != c.Kind || m.Identity != c.Identity || m.Step != c.Step ||
			m.ResumeStep != c.ResumeStep || m.NewWorld != c.NewWorld {
			t.Fatalf("event %d diverges: mem=%+v tcp=%+v", i, m, c)
		}
	}
	for s := range mem.Losses {
		if mem.Losses[s] != tcp.Losses[s] {
			t.Fatalf("step %d loss diverges: mem=%v tcp=%v", s, mem.Losses[s], tcp.Losses[s])
		}
	}
	requireSurvivorsAgree(t, mem)
	if len(mem.Ranks) != len(tcp.Ranks) {
		t.Fatalf("final worlds: mem=%d tcp=%d ranks", len(mem.Ranks), len(tcp.Ranks))
	}
	for r := range mem.Ranks {
		if !slices.Equal(mem.Ranks[r].Weights, tcp.Ranks[r].Weights) {
			t.Fatalf("rank %d's weights diverge between transports", r)
		}
	}
}

// The leader dying mid-negotiation over TCP: followers waiting on the dead
// leader's verdict are unblocked by heartbeat suspicion confirming the
// death, advance an election round, and converge under the next leader.
func TestElasticTCPLeaderCrashMidNegotiation(t *testing.T) {
	cfg := tcpTestConfig()
	cfg.Steps = 6
	cfg.Plan.CrashAtStep = map[int]int{3: 2}
	cfg.Plan.CrashInNegotiation = map[int]int{0: 2}
	res := runElastic(t, cfg)

	if res.Incarnations != 2 || len(res.Events) != 2 {
		t.Fatalf("incarnations=%d events=%+v, want both victims in one recovery", res.Incarnations, res.Events)
	}
	gone := map[int]bool{}
	for _, ev := range res.Events {
		if ev.Kind != KindCrash || ev.NewWorld != 2 {
			t.Fatalf("event %+v, want a crash shrinking to 2", ev)
		}
		gone[ev.Identity] = true
	}
	if !gone[0] || !gone[3] {
		t.Fatalf("crashed identities %v, want the mid-negotiation leader 0 and step victim 3", gone)
	}
	requireAllLossesRecorded(t, res)
}

// Rejoin-grow works over TCP too: a fresh set of endpoints comes up one
// rank larger and resumes from the boundary checkpoint.
func TestElasticTCPRejoinGrowsWorldBack(t *testing.T) {
	cfg := tcpTestConfig()
	cfg.Steps = 6
	cfg.Plan.CrashAtStep = map[int]int{2: 2}
	cfg.Plan.JoinAtStep = map[int]int{2: 4}
	res := runElastic(t, cfg)

	if res.Incarnations != 3 || len(res.Events) != 2 {
		t.Fatalf("incarnations=%d events=%+v, want crash then rejoin", res.Incarnations, res.Events)
	}
	if rejoin := res.Events[1]; rejoin.Kind != KindRejoin || rejoin.Identity != 2 || rejoin.NewWorld != 4 {
		t.Fatalf("second event %+v, want identity 2 rejoining to world 4", rejoin)
	}
	requireAllLossesRecorded(t, res)
}
