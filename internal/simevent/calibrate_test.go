package simevent

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// TestCalibrateAgainstLiveRuns is the in-tree calibration smoke: real
// profiled runs at 2×4 with a large slowdown (sleeps dominate scheduler
// noise), simulated with the same profiles, fitted, and checked loosely.
// The strict 15% MAPE gate lives in the benchtool CI calibration job; this
// test only pins that the machinery works end to end and that bytes agree
// exactly, with enough slack (50%) to never flake on a loaded CI box.
func TestCalibrateAgainstLiveRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("live profiled runs sleep real wall time")
	}
	intra, inter, err := simnet.MinskyFabric(2).LinkProfiles(300)
	if err != nil {
		t.Fatal(err)
	}
	topo := mpi.UniformTopology(8, 4)
	cases := []LiveCase{
		{Spec: Spec{Collective: BucketRing, Topo: topo, Elems: 4096}, Intra: intra, Inter: inter},
		{Spec: Spec{Collective: ShardedRS, Topo: topo, Elems: 4096, BucketFloats: 1024, Codec: compress.Int8{}},
			Intra: intra, Inter: inter},
	}
	cal, err := Calibrate(cases, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !cal.BytesExact {
		t.Fatalf("byte totals diverge: %+v", cal.Cases)
	}
	if cal.HostOverhead < 0 {
		t.Fatalf("negative fitted overhead %v", cal.HostOverhead)
	}
	if cal.MAPE > 0.5 {
		t.Fatalf("MAPE %.1f%% above the loose 50%% smoke bound: %+v", 100*cal.MAPE, cal.Cases)
	}
	for _, c := range cal.Cases {
		if c.MeasuredMS <= 0 || c.PredictedMS <= 0 {
			t.Fatalf("degenerate case report: %+v", c)
		}
	}
}
