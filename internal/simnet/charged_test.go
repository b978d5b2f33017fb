package simnet_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/mpi"
	"repro/internal/simevent"
	"repro/internal/simnet"
)

// These tests pin what a FatTree means once the event engine charges it:
// two- and three-message hand schedules, one rank per host, stream i of a
// rank on rail i.

func testTree(t *testing.T, hosts int) *simnet.FatTree {
	t.Helper()
	tree, err := simnet.NewFatTree(hosts, 4, 2, 2, 1e9, 4e9, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// replay runs scheds (padded to one rank per host) over the charged tree and
// returns each rank's finish time in seconds.
func replay(t *testing.T, tree *simnet.FatTree, cfg simevent.Config, scheds map[int]allreduce.RankSchedule) []float64 {
	t.Helper()
	all := make([]allreduce.RankSchedule, tree.Hosts)
	for r, s := range scheds {
		all[r] = s
	}
	var err error
	if cfg.Intra, cfg.Inter, err = tree.LinkProfiles(1); err != nil {
		t.Fatal(err)
	}
	cfg.Topo = mpi.UniformTopology(tree.Hosts, 1)
	cfg.Fabric = tree
	res, err := simevent.Run(all, cfg)
	if err != nil {
		t.Fatal(err)
	}
	finish := make([]float64, tree.Hosts)
	for r, s := range res.PerRank {
		finish[r] = s.Finish.Seconds()
	}
	return finish
}

const gb1 = 1_000_000_000 // one second on a 1 GB/s host link (an int on 32-bit GOARCHes too)

func send(peer, bytes int) allreduce.WireOp {
	return allreduce.WireOp{Kind: allreduce.WireSend, Peer: peer, Bytes: bytes}
}

func recv(peer, bytes int) allreduce.WireOp {
	return allreduce.WireOp{Kind: allreduce.WireRecv, Peer: peer, Bytes: bytes}
}

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-6 }

func TestSingleFlowTime(t *testing.T) {
	tree := testTree(t, 8)
	finish := replay(t, tree, simevent.Config{}, map[int]allreduce.RankSchedule{
		0: {{send(1, gb1)}},
		1: {{recv(0, gb1)}},
	})
	// 1 GB over 1 GB/s, after the flow latency; the blocking sender is
	// held exactly as long.
	if want := 1.0 + tree.Latency; !near(finish[1], want) || finish[0] != finish[1] {
		t.Fatalf("receiver done at %v, sender at %v, want %v", finish[1], finish[0], want)
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	tree := testTree(t, 8)
	// Hosts 0 and 1 both send into host 2 on rail 0: they share its 1 GB/s
	// down link, 0.5 GB/s each.
	finish := replay(t, tree, simevent.Config{}, map[int]allreduce.RankSchedule{
		0: {{send(2, gb1)}},
		1: {{send(2, gb1)}},
		2: {{recv(0, gb1), recv(1, gb1)}},
	})
	for _, r := range []int{0, 1} {
		if !near(finish[r], 2.0+tree.Latency) {
			t.Fatalf("shared flow from host %d done at %v, want ~2", r, finish[r])
		}
	}
}

func TestSeparateRailsDontShare(t *testing.T) {
	tree := testTree(t, 8)
	// The same two flows, host 1's on the other adapter (its stream 1).
	finish := replay(t, tree, simevent.Config{}, map[int]allreduce.RankSchedule{
		0: {{send(2, gb1)}},
		1: {nil, {send(2, gb1)}},
		2: {{recv(0, gb1)}, {recv(1, gb1)}},
	})
	for _, r := range []int{0, 1} {
		if !near(finish[r], 1.0+tree.Latency) {
			t.Fatalf("dual-rail flow from host %d done at %v, want ~1", r, finish[r])
		}
	}
	// One host driving both of its adapters at once is as fast.
	finish = replay(t, tree, simevent.Config{}, map[int]allreduce.RankSchedule{
		0: {{send(1, gb1)}, {send(2, gb1)}},
		1: {{recv(0, gb1)}},
		2: {{recv(0, gb1)}},
	})
	if !near(finish[0], 1.0+tree.Latency) {
		t.Fatalf("host sending on both rails done at %v, want ~1", finish[0])
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	tree := testTree(t, 8)
	finish := replay(t, tree, simevent.Config{}, map[int]allreduce.RankSchedule{
		0: {{send(1, gb1)}},
		1: {{recv(0, gb1), send(2, gb1)}},
		2: {{recv(1, gb1)}},
	})
	if finish[2] < finish[0]+1.0 {
		t.Fatalf("dependent flow finished at %v, the flow it waits for at %v", finish[2], finish[0])
	}
}

// A send's per-byte host cost (a staging copy, a shuffle's packing) is paid
// on its stream before the transfer starts.
func TestDelayCharged(t *testing.T) {
	tree := testTree(t, 8)
	finish := replay(t, tree, simevent.Config{CopyRate: 2e9}, map[int]allreduce.RankSchedule{
		0: {{send(1, gb1)}},
		1: {{recv(0, gb1)}},
	})
	if want := 0.5 + 1.0 + tree.Latency; !near(finish[1], want) {
		t.Fatalf("staged flow done at %v, want %v", finish[1], want)
	}
}

// A zero-byte message is a pure synchronization edge: it costs its latency
// and orders what follows its receive.
func TestZeroByteFlowIsSyncNode(t *testing.T) {
	tree := testTree(t, 8)
	finish := replay(t, tree, simevent.Config{}, map[int]allreduce.RankSchedule{
		0: {{send(1, gb1), recv(1, gb1)}},
		1: {{recv(0, gb1), recv(3, 0), send(0, gb1)}}, // waits for both flows
		2: {{send(3, gb1/2)}},
		3: {{recv(2, gb1/2), send(1, 0)}},
	})
	if !near(finish[3], 0.5+2*tree.Latency) {
		t.Fatalf("sync message delivered at %v, want its flow's 0.5 s plus two latencies", finish[3])
	}
	if finish[0] < math.Max(finish[3], 1.0)+1.0 {
		t.Fatalf("flow after the sync point finished too early: %v", finish[0])
	}
}

func TestCrossLeafRouteUsesFabric(t *testing.T) {
	tree := testTree(t, 8) // hosts 0-3 leaf 0, hosts 4-7 leaf 1
	route, err := tree.Route(0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 4 {
		t.Fatalf("cross-leaf route has %d links, want 4", len(route))
	}
	same, err := tree.Route(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 2 {
		t.Fatalf("same-leaf route has %d links, want 2", len(same))
	}
	loop, err := tree.Route(3, 3, 0)
	if err != nil || loop != nil {
		t.Fatalf("loopback route should be empty, got %v (%v)", loop, err)
	}
	if _, err := tree.Route(0, 99, 0); err == nil {
		t.Fatal("out-of-range host should error")
	}
	// A cross-leaf flow pays its spine: slow that one link and only the
	// flow crossing it slows down.
	if err := tree.SetBandwidth(route[1], 0.5e9); err != nil {
		t.Fatal(err)
	}
	finish := replay(t, tree, simevent.Config{}, map[int]allreduce.RankSchedule{
		0: {{send(5, gb1)}},
		5: {{recv(0, gb1)}},
		1: {{send(2, gb1)}},
		2: {{recv(1, gb1)}},
	})
	if !near(finish[5], 2.0+tree.Latency) || !near(finish[2], 1.0+tree.Latency) {
		t.Fatalf("cross-leaf flow done at %v (want ~2), same-leaf flow at %v (want ~1)", finish[5], finish[2])
	}
}

func TestPipelineOverlaps(t *testing.T) {
	// Two-hop pipeline with 4 segments must be faster than the serial sum
	// of both hops but slower than one hop.
	tree := testTree(t, 8)
	const seg = gb1 / 4 // 0.25 s a hop
	var first, relay, last []allreduce.WireOp
	for s := 0; s < 4; s++ {
		first = append(first, send(1, seg))
		relay = append(relay, recv(0, seg), send(2, seg))
		last = append(last, recv(1, seg))
	}
	finish := replay(t, tree, simevent.Config{}, map[int]allreduce.RankSchedule{0: {first}, 1: {relay}, 2: {last}})
	if total := finish[2]; total > 1.6 { // serial would be 2.0; pipelined ideal is 1.25
		t.Fatalf("pipeline total %v, want < 1.6 (overlap)", total)
	} else if total < 1.2 {
		t.Fatalf("pipeline total %v faster than physically possible", total)
	}
}

func TestOversubscribedFabricSlower(t *testing.T) {
	// Four cross-leaf flows under a thin fabric vs a fat one.
	makespanWith := func(fabricBW float64) float64 {
		tree, err := simnet.NewFatTree(8, 4, 1, 1, 1e9, fabricBW, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		scheds := map[int]allreduce.RankSchedule{}
		for src := 0; src < 4; src++ {
			scheds[src] = allreduce.RankSchedule{{send(4+src, gb1)}}
			scheds[4+src] = allreduce.RankSchedule{{recv(src, gb1)}}
		}
		return slices.Max(replay(t, tree, simevent.Config{}, scheds))
	}
	thin := makespanWith(1e9) // 4 flows share one 1 GB/s spine link
	fat := makespanWith(16e9) // fabric not the bottleneck
	if thin < 3.9 || fat > 1.1 {
		t.Fatalf("thin fabric %v (want ~4), fat fabric %v (want ~1)", thin, fat)
	}
}

func TestMinskyFabric(t *testing.T) {
	tree := simnet.MinskyFabric(32)
	if tree.Hosts != 32 || tree.Rails != 2 {
		t.Fatalf("minsky fabric %d hosts %d rails", tree.Hosts, tree.Rails)
	}
	// A single large flow should move at one rail's bandwidth.
	const flow = 1_100_000_000 // 0.1 s on an 11 GB/s rail
	finish := replay(t, tree, simevent.Config{}, map[int]allreduce.RankSchedule{
		0: {{send(9, flow)}},
		9: {{recv(0, flow)}},
	})
	if math.Abs(finish[9]-0.1) > 0.001 {
		t.Fatalf("minsky single-flow time %v, want ~0.1s", finish[9])
	}
}

func TestNewFatTreeValidation(t *testing.T) {
	if _, err := simnet.NewFatTree(0, 1, 1, 1, 1, 1, 0); err == nil {
		t.Fatal("zero hosts should error")
	}
	if _, err := simnet.NewFatTree(4, 2, 1, 1, 0, 1, 0); err == nil {
		t.Fatal("zero bandwidth should error")
	}
}
