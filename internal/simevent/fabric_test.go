package simevent

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// chargedStep replays one collective over fabric, ranksPerNode ranks a host.
func chargedStep(t *testing.T, fabric *simnet.FatTree, ranksPerNode int, col Collective) *Result {
	t.Helper()
	intra, inter, err := simnet.MinskyFabric(fabric.Hosts).LinkProfiles(1) // the undegraded latency
	if err != nil {
		t.Fatal(err)
	}
	topo := mpi.UniformTopology(fabric.Hosts*ranksPerNode, ranksPerNode)
	scheds, err := BuildSchedule(Spec{
		Collective: col, Topo: topo, Elems: 1 << 18, BucketFloats: 1 << 14, Codec: compress.Int8{},
		PairBytes: func(src, dst int) int { return unevenPair(src, dst, 1<<12) },
	})
	if err != nil {
		t.Fatalf("%s: %v", col, err)
	}
	res, err := Run(scheds, Config{Topo: topo, Intra: intra, Inter: inter, Fabric: fabric})
	if err != nil {
		t.Fatalf("%s: %v", col, err)
	}
	return res
}

// TestDegradedSpineSlowsCrossLeafSteps: congestion is charged, so taking
// bandwidth away from a link a step crosses can only lengthen the step.
func TestDegradedSpineSlowsCrossLeafSteps(t *testing.T) {
	longer := 0
	for _, col := range []Collective{MultiColor, PipelinedRing, Rabenseifner} {
		whole := simnet.MinskyFabric(16) // two leaves, two spines
		base := chargedStep(t, whole, 2, col)
		halved := simnet.MinskyFabric(16)
		for spine := 0; spine < halved.Spines; spine++ {
			up := halved.LeafUp(0, spine)
			if err := halved.SetBandwidth(up, halved.Bandwidth(up)/2); err != nil {
				t.Fatal(err)
			}
			slow := chargedStep(t, halved, 2, col)
			if slow.Makespan < base.Makespan {
				t.Fatalf("%s: halving %s shortened the step, %v -> %v", col, halved.LinkName(up), base.Makespan, slow.Makespan)
			}
			if slow.Makespan > base.Makespan {
				longer++
			}
			if slow.Traffic != base.Traffic || slow.Messages != base.Messages {
				t.Fatalf("%s: a slower link changed what was sent", col)
			}
			if err := halved.SetBandwidth(up, whole.Bandwidth(up)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if longer == 0 {
		t.Fatal("no cross-leaf step got longer on a half-bandwidth spine link: links are not being charged")
	}
}

// TestNoLinkCarriesMoreThanItsBandwidth: with the fabric charged, busy time
// over makespan cannot pass 1 on any link, for any collective.
func TestNoLinkCarriesMoreThanItsBandwidth(t *testing.T) {
	for _, col := range Collectives() {
		res := chargedStep(t, simnet.MinskyFabric(16), 4, col)
		if len(res.Links) == 0 {
			t.Fatalf("%s: no link carried traffic", col)
		}
		for _, l := range res.Links {
			if l.Utilization > 1 {
				t.Fatalf("%s: %s utilization %.6f", col, l.Name, l.Utilization)
			}
		}
	}
}
