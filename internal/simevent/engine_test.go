package simevent

import (
	"strings"
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

func twoNodeConfig(inter, intra mpi.LinkProfile) Config {
	return Config{Topo: mpi.UniformTopology(4, 2), Intra: intra, Inter: inter}
}

// TestInterNodeSendsSerializeOnEgress pins the egress model: two inter-node
// messages from one rank occupy its NIC share back to back, while two
// intra-node messages delay concurrently.
func TestInterNodeSendsSerializeOnEgress(t *testing.T) {
	inter := mpi.LinkProfile{Latency: time.Millisecond}
	cfg := twoNodeConfig(inter, mpi.LinkProfile{})

	// Rank 0 Isends twice to ranks 2 and 3 (both on the other node); each
	// transfer takes 1ms and they must serialize: makespan 2ms.
	scheds := make([]allreduce.RankSchedule, 4)
	scheds[0] = allreduce.RankSchedule{{
		{Kind: allreduce.WireIsend, Peer: 2, Tag: 7, Bytes: 10},
		{Kind: allreduce.WireIsend, Peer: 3, Tag: 7, Bytes: 10},
	}}
	scheds[2] = allreduce.RankSchedule{{{Kind: allreduce.WireRecv, Peer: 0, Tag: 7, Bytes: 10}}}
	scheds[3] = allreduce.RankSchedule{{{Kind: allreduce.WireRecv, Peer: 0, Tag: 7, Bytes: 10}}}
	res, err := Run(scheds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 2*time.Millisecond {
		t.Fatalf("serialized egress makespan = %v, want 2ms", res.Makespan)
	}
	if res.Traffic.InterBytes != 20 || res.Traffic.IntraBytes != 0 {
		t.Fatalf("traffic = %+v, want 20 inter bytes", res.Traffic)
	}

	// The same pattern within a node: intra sends do not serialize.
	cfg = twoNodeConfig(mpi.LinkProfile{}, mpi.LinkProfile{Latency: time.Millisecond})
	scheds = make([]allreduce.RankSchedule, 4)
	scheds[0] = allreduce.RankSchedule{{
		{Kind: allreduce.WireIsend, Peer: 1, Tag: 7, Bytes: 10},
		{Kind: allreduce.WireIsend, Peer: 1, Tag: 8, Bytes: 10},
	}}
	scheds[1] = allreduce.RankSchedule{{
		{Kind: allreduce.WireRecv, Peer: 0, Tag: 7, Bytes: 10},
		{Kind: allreduce.WireRecv, Peer: 0, Tag: 8, Bytes: 10},
	}}
	res, err = Run(scheds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != time.Millisecond {
		t.Fatalf("concurrent intra makespan = %v, want 1ms", res.Makespan)
	}
}

// TestBlockingSendOccupiesSender: a WireSend holds the sender until the
// transfer completes; a WireIsend does not.
func TestBlockingSendOccupiesSender(t *testing.T) {
	inter := mpi.LinkProfile{Latency: time.Millisecond}
	cfg := twoNodeConfig(inter, mpi.LinkProfile{})
	scheds := make([]allreduce.RankSchedule, 4)
	// Blocking send then a recv: the recv cannot start before 1ms, and its
	// message (sent at 0 from rank 2) is ready by then.
	scheds[0] = allreduce.RankSchedule{{
		{Kind: allreduce.WireSend, Peer: 2, Tag: 1, Bytes: 10},
		{Kind: allreduce.WireRecv, Peer: 2, Tag: 2, Bytes: 10},
	}}
	scheds[2] = allreduce.RankSchedule{{
		{Kind: allreduce.WireIsend, Peer: 0, Tag: 2, Bytes: 10},
		{Kind: allreduce.WireRecv, Peer: 0, Tag: 1, Bytes: 10},
	}}
	res, err := Run(scheds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[0].Finish; got != time.Millisecond {
		t.Fatalf("rank 0 finish = %v, want 1ms (blocking send then ready recv)", got)
	}
}

// TestRecvMatchesPerSourceTagFIFO: two messages on one (src, tag) pair
// deliver in send order regardless of receive timing.
func TestRecvMatchesPerSourceTagFIFO(t *testing.T) {
	inter := mpi.LinkProfile{Latency: time.Millisecond, BytesPerSec: 1e6}
	cfg := twoNodeConfig(inter, mpi.LinkProfile{})
	scheds := make([]allreduce.RankSchedule, 4)
	scheds[0] = allreduce.RankSchedule{{
		{Kind: allreduce.WireIsend, Peer: 2, Tag: 5, Bytes: 1000}, // arrives 2ms
		{Kind: allreduce.WireIsend, Peer: 2, Tag: 5, Bytes: 2000}, // arrives 2ms + 3ms
	}}
	scheds[2] = allreduce.RankSchedule{{
		{Kind: allreduce.WireRecv, Peer: 0, Tag: 5, Bytes: 1000},
		{Kind: allreduce.WireRecv, Peer: 0, Tag: 5, Bytes: 2000},
	}}
	res, err := Run(scheds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 5 * time.Millisecond // (1ms+1ms) then (1ms+2ms), serialized on rank 0's egress
	if res.PerRank[2].Finish != want {
		t.Fatalf("rank 2 finish = %v, want %v", res.PerRank[2].Finish, want)
	}
}

// TestDeadlockDetection: a receive with no matching send terminates with a
// descriptive error instead of hanging.
func TestDeadlockDetection(t *testing.T) {
	scheds := make([]allreduce.RankSchedule, 4)
	scheds[1] = allreduce.RankSchedule{{{Kind: allreduce.WireRecv, Peer: 0, Tag: 9, Bytes: 4}}}
	_, err := Run(scheds, twoNodeConfig(mpi.LinkProfile{}, mpi.LinkProfile{}))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

// TestHostOverheadExtendsMakespan: overhead charges per completed op and a
// zero-overhead run is strictly faster.
func TestHostOverheadExtendsMakespan(t *testing.T) {
	topo := mpi.UniformTopology(8, 4)
	scheds, err := BuildSchedule(Spec{Collective: BucketRing, Topo: topo, Elems: 800})
	if err != nil {
		t.Fatal(err)
	}
	inter := mpi.LinkProfile{Latency: 100 * time.Microsecond, BytesPerSec: 1e8}
	intra := mpi.LinkProfile{Latency: 10 * time.Microsecond, BytesPerSec: 1e9}
	base, err := Run(scheds, Config{Topo: topo, Intra: intra, Inter: inter})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(scheds, Config{Topo: topo, Intra: intra, Inter: inter, HostOverhead: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= base.Makespan {
		t.Fatalf("overhead run %v not slower than base %v", slow.Makespan, base.Makespan)
	}
	if slow.Traffic != base.Traffic {
		t.Fatalf("overhead changed traffic: %+v vs %+v", slow.Traffic, base.Traffic)
	}
}

// TestFabriclessWorldUnchanged pins the model the live runs calibrate: with
// no Fabric the engine must time and count exactly as it did before fabrics
// were charged. The rows were recorded from the parent commit (PR 16,
// 2132b92) — Minsky profiles, Elems 100003, BucketFloats 4096, int8 — with
// HostOverhead 0 and 3µs; perRank is an FNV-1a fold of every rank's
// (sent, received) byte totals.
func TestFabriclessWorldUnchanged(t *testing.T) {
	golden := []struct {
		nodes, rpn          int
		col                 Collective
		makespan, makespan3 time.Duration
		intra, inter        int64
		messages            int
		perRank             uint64
	}{
		{2, 4, BucketRing, 133630, 217630, 4200124, 1400044, 112, 0x800b5937f784bd5},
		{2, 4, Rabenseifner, 51090, 87090, 2400072, 3200096, 48, 0xc576da433ae11fb5},
		{2, 4, Hierarchical, 371582, 1196582, 3000690, 800024, 350, 0xca36a271fe24b6ed},
		{2, 4, ShardedRS, 85952, 189836, 386409, 515212, 224, 0xad19ec44c545e1bd},
		{16, 8, BucketRing, 1342136, 2866136, 88902668, 12700380, 32512, 0xc9b427b108ccf305},
		{16, 8, Rabenseifner, 111576, 195575, 5600168, 96002880, 1792, 0xe5180eb81b87b0b5},
		{16, 8, Hierarchical, 2785822, 12940614, 56012880, 12000360, 6350, 0x239e62bdfb46fe95},
		{16, 8, ShardedRS, 767542, 1538080, 4312063, 73921080, 19304, 0x4095dc933d0d5d25},
	}
	for _, g := range golden {
		intra, inter, err := simnet.MinskyFabric(g.nodes).LinkProfiles(1)
		if err != nil {
			t.Fatal(err)
		}
		topo := mpi.UniformTopology(g.nodes*g.rpn, g.rpn)
		scheds, err := BuildSchedule(Spec{Collective: g.col, Topo: topo, Elems: 100003, BucketFloats: 4096, Codec: compress.Int8{}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(scheds, Config{Topo: topo, Intra: intra, Inter: inter})
		if err != nil {
			t.Fatal(err)
		}
		res3, err := Run(scheds, Config{Topo: topo, Intra: intra, Inter: inter, HostOverhead: 3 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		h := uint64(fnvOffset)
		for _, r := range res.PerRank {
			for _, v := range [2]uint64{uint64(r.SentBytes), uint64(r.RecvBytes)} {
				h ^= v
				h *= fnvPrime
			}
		}
		if res.Makespan != g.makespan || res3.Makespan != g.makespan3 ||
			res.Traffic != (mpi.Traffic{IntraBytes: g.intra, InterBytes: g.inter}) ||
			res.Messages != g.messages || h != g.perRank {
			t.Errorf("%d×%d %s: makespan %d (3µs overhead: %d) traffic %+v messages %d per-rank %#x, parent had %+v",
				g.nodes, g.rpn, g.col, res.Makespan, res3.Makespan, res.Traffic, res.Messages, h, g)
		}
	}
}

// TestRunRejectsMalformedSchedule: input a transport could never carry is
// refused before anything runs.
func TestRunRejectsMalformedSchedule(t *testing.T) {
	cfg := twoNodeConfig(mpi.LinkProfile{}, mpi.LinkProfile{})
	for name, ops := range map[string][]allreduce.WireOp{
		"peer":          {{Kind: allreduce.WireSend, Peer: 4, Bytes: 8}},
		"negative size": {{Kind: allreduce.WireSend, Peer: 1, Bytes: -8}},
	} {
		scheds := make([]allreduce.RankSchedule, 4)
		scheds[2] = allreduce.RankSchedule{nil, ops}
		_, err := Run(scheds, cfg)
		if err == nil || !strings.Contains(err.Error(), "rank 2 stream 1 op 0") || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: want an error naming rank 2 stream 1 op 0, got %v", name, err)
		}
	}
	if _, err := Run(make([]allreduce.RankSchedule, 3), cfg); err == nil {
		t.Fatal("a schedule for 3 ranks on a 4-rank topology should error")
	}
}

// TestRecvSizeMustMatchSend: per-rank byte totals cannot see two mis-sized
// messages that cancel (rank 1 receives 8+24 where 16+16 were sent); the
// engine checks every match.
func TestRecvSizeMustMatchSend(t *testing.T) {
	scheds := make([]allreduce.RankSchedule, 4)
	scheds[0] = allreduce.RankSchedule{{
		{Kind: allreduce.WireIsend, Peer: 1, Tag: 3, Bytes: 16},
		{Kind: allreduce.WireIsend, Peer: 1, Tag: 3, Bytes: 16},
	}}
	scheds[1] = allreduce.RankSchedule{{
		{Kind: allreduce.WireRecv, Peer: 0, Tag: 3, Bytes: 8},
		{Kind: allreduce.WireRecv, Peer: 0, Tag: 3, Bytes: 24},
	}}
	_, err := Run(scheds, twoNodeConfig(mpi.LinkProfile{}, mpi.LinkProfile{}))
	if err == nil || !strings.Contains(err.Error(), "rank 1 stream 0 op 0") || !strings.Contains(err.Error(), "16-byte send") {
		t.Fatalf("want a size-mismatch error naming rank 1 stream 0 op 0, got %v", err)
	}
}

// TestTwoStreamsOnOneQueue: two streams of a rank blocked on the same
// (peer, tag) is a schedule bug — which one a message wakes is undefined —
// and must not read as a deadlock of the stream that lost its place.
func TestTwoStreamsOnOneQueue(t *testing.T) {
	scheds := make([]allreduce.RankSchedule, 4)
	scheds[0] = allreduce.RankSchedule{{
		{Kind: allreduce.WireSend, Peer: 1, Tag: 3, Bytes: 8},
		{Kind: allreduce.WireSend, Peer: 1, Tag: 3, Bytes: 8},
	}}
	scheds[1] = allreduce.RankSchedule{
		{{Kind: allreduce.WireRecv, Peer: 0, Tag: 3, Bytes: 8}},
		{{Kind: allreduce.WireRecv, Peer: 0, Tag: 3, Bytes: 8}},
	}
	_, err := Run(scheds, twoNodeConfig(mpi.LinkProfile{}, mpi.LinkProfile{Latency: time.Millisecond}))
	if err == nil || strings.Contains(err.Error(), "deadlock") ||
		!strings.Contains(err.Error(), "rank 1 stream 1 op 0") || !strings.Contains(err.Error(), "stream 0") {
		t.Fatalf("want an error naming rank 1, streams 1 and 0, op 0, got %v", err)
	}
}

// TestFoldAndCopyCostsRideTheStream: a folding receive completes
// Bytes/SumRate after its message lands, a send is posted Bytes/CopyRate
// after its stream reaches it, and a plain receive pays neither.
func TestFoldAndCopyCostsRideTheStream(t *testing.T) {
	scheds := make([]allreduce.RankSchedule, 4)
	scheds[0] = allreduce.RankSchedule{{
		{Kind: allreduce.WireSend, Peer: 2, Tag: 1, Bytes: 1000},
		{Kind: allreduce.WireSend, Peer: 3, Tag: 1, Bytes: 1000},
	}}
	scheds[2] = allreduce.RankSchedule{{{Kind: allreduce.WireRecv, Peer: 0, Tag: 1, Bytes: 1000, Fold: true}}}
	scheds[3] = allreduce.RankSchedule{{{Kind: allreduce.WireRecv, Peer: 0, Tag: 1, Bytes: 1000}}}
	cfg := twoNodeConfig(mpi.LinkProfile{Latency: time.Millisecond}, mpi.LinkProfile{})
	cfg.CopyRate, cfg.SumRate = 1e6, 0.5e6 // 1 ms to stage, 2 ms to fold
	res, err := Run(scheds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range map[int]time.Duration{0: 4 * time.Millisecond, 2: 4 * time.Millisecond, 3: 4 * time.Millisecond} {
		if got := res.PerRank[r].Finish; got != want {
			t.Fatalf("rank %d finish = %v, want %v", r, got, want)
		}
	}
}
