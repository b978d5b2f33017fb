package simevent

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
)

// TestSimBytesMatchLiveTraffic is the drift tripwire: for every collective
// and every codec, the simulated per-link-class byte totals must EXACTLY
// equal the live world's mpi.World.Traffic counters at small scale. The
// live run uses zero link profiles (bytes are counted, wall time is free),
// so the whole matrix stays fast enough to pin under -race in CI.
func TestSimBytesMatchLiveTraffic(t *testing.T) {
	codecs := []compress.Config{
		{Codec: "none"},
		{Codec: "int8"},
		{Codec: "bf16"},
		{Codec: "topk", TopKRatio: 0.25},
	}
	type layout struct {
		nodes, rpn, elems, bucket int
	}
	layouts := []layout{
		{2, 4, 1000, 256}, // uneven shards, partial last bucket and ring segment; 4 colors
		{2, 4, 5, 0},      // fewer elements than ranks: empty shards, zero-byte messages
		{2, 4, 3, 0},      // fewer elements than colors: an empty chunk sends nothing
		{2, 3, 999, 128},  // non-power-of-two ranks: Rabenseifner fold-in path; colors degrade to 3
	}
	for _, lay := range layouts {
		for _, col := range Collectives() {
			// The raw-wire collectives' traffic is codec-independent, so one
			// probe suffices.
			cs := codecs
			if !col.Compressed() {
				cs = codecs[:1]
			}
			for _, cc := range cs {
				lay := lay
				codec, err := compress.New(cc)
				if err != nil {
					t.Fatal(err)
				}
				spec := Spec{
					Collective:   col,
					Topo:         mpi.UniformTopology(lay.nodes*lay.rpn, lay.rpn),
					Elems:        lay.elems,
					BucketFloats: lay.bucket,
					Codec:        codec,
					PairBytes:    func(src, dst int) int { return unevenPair(src, dst, lay.elems) },
				}
				name := fmt.Sprintf("%s/%s/%dx%d/e%d", col, cc.Codec, lay.nodes, lay.rpn, lay.elems)
				t.Run(name, func(t *testing.T) {
					live, err := RunLive(LiveCase{Spec: spec})
					if err != nil {
						t.Fatalf("live run: %v", err)
					}
					scheds, err := BuildSchedule(spec)
					if err != nil {
						t.Fatalf("schedule: %v", err)
					}
					sim, err := Run(scheds, Config{Topo: spec.Topo})
					if err != nil {
						t.Fatalf("sim run: %v", err)
					}
					if sim.Traffic != live.Traffic {
						t.Fatalf("simulated traffic %+v != live traffic %+v", sim.Traffic, live.Traffic)
					}
					// Per-rank sent bytes must also reconcile with the class
					// totals — a misattributed message cannot hide in the sum.
					var sent int64
					for _, r := range sim.PerRank {
						sent += r.SentBytes
					}
					if sent != live.Traffic.IntraBytes+live.Traffic.InterBytes {
						t.Fatalf("per-rank sent total %d != live total %d",
							sent, live.Traffic.IntraBytes+live.Traffic.InterBytes)
					}
				})
			}
		}
	}
}

// unevenPair is the AllToAllV test pattern: per-pair sizes of 0, 1, 2 or 3
// times unit bytes, asymmetric in (src, dst).
func unevenPair(src, dst, unit int) int { return (5*src + 3*dst) % 4 * unit }

// TestScheduleBytesMatchWireSizer pins the schedule-level invariant behind
// the cross-validation: every send in a schedule has a matching receive of
// the same size, so the engine's sent and received totals agree.
func TestScheduleBytesMatchWireSizer(t *testing.T) {
	topo := mpi.UniformTopology(8, 4)
	for _, col := range Collectives() {
		scheds, err := BuildSchedule(Spec{Collective: col, Topo: topo, Elems: 777, BucketFloats: 100, Codec: compress.Int8{},
			PairBytes: func(src, dst int) int { return unevenPair(src, dst, 777) }})
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		sim, err := Run(scheds, Config{Topo: topo})
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		var sent, recv int64
		for _, r := range sim.PerRank {
			sent += r.SentBytes
			recv += r.RecvBytes
		}
		if sent != recv {
			t.Fatalf("%s: sent %d != received %d — schedule has an unmatched or missized message", col, sent, recv)
		}
	}
}
