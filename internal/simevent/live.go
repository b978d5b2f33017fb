package simevent

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/mpi"
)

// LiveCase describes one small-scale live run of a collective — the
// measurement side of calibration and cross-validation: the Spec the
// simulated twin is extracted from, plus the world's link profiles.
type LiveCase struct {
	Spec
	// Intra and Inter are the world's link profiles; zero values cost no
	// wall time but still count bytes — the cross-validation configuration.
	Intra, Inter mpi.LinkProfile
}

// LiveResult is one measured collective step.
type LiveResult struct {
	// Wall is the world's wall time for the step (goroutine spawn to last
	// rank done).
	Wall time.Duration
	// Traffic is the world's per-link-class byte count for the step.
	Traffic mpi.Traffic
}

// RunLive executes the case's collective once on a real topology world —
// one goroutine per rank, the profiled transport charging every message —
// and returns measured wall time and exact wire-byte counters.
func RunLive(lc LiveCase) (LiveResult, error) {
	ranks := len(lc.Topo.Node)
	if ranks == 0 {
		return LiveResult{}, fmt.Errorf("simevent: live case has no ranks")
	}
	if lc.Collective == AllToAllV && lc.PairBytes == nil {
		return LiveResult{}, fmt.Errorf("simevent: %s needs Spec.PairBytes", AllToAllV)
	}
	topo, codec := lc.Topo, lc.Codec
	if codec == nil {
		codec = compress.Identity{}
	}
	w, err := mpi.NewTopologyWorld(ranks, topo, lc.Intra, lc.Inter)
	if err != nil {
		return LiveResult{}, err
	}
	defer w.Close()
	start := time.Now()
	err = w.Run(func(c *mpi.Comm) error {
		data := make([]float32, lc.Elems)
		for i := range data {
			data[i] = float32((i+c.Rank())%97) * 0.125
		}
		switch lc.Collective {
		case BucketRing:
			return allreduce.AllReduce(c, data, allreduce.AlgBucketRing, allreduce.Options{})
		case Rabenseifner:
			return allreduce.AllReduce(c, data, allreduce.AlgRabenseifner, allreduce.Options{})
		case MultiColor:
			return allreduce.AllReduce(c, data, allreduce.AlgMultiColor, allreduce.Options{SegmentFloats: lc.BucketFloats})
		case PipelinedRing:
			return allreduce.AllReduce(c, data, allreduce.AlgRing, allreduce.Options{SegmentFloats: lc.BucketFloats})
		case Hierarchical:
			_, err := allreduce.BucketedAllReduce(c, data, codec, allreduce.CompressedOptions{
				BucketFloats: lc.BucketFloats,
				Topology:     &topo,
			})
			return err
		case ShardedRS:
			_, err := allreduce.BucketedReduceScatter(c, data, codec, allreduce.CompressedOptions{
				BucketFloats: lc.BucketFloats,
			})
			return err
		case AllToAllV:
			send := make([][]byte, ranks)
			for dst := range send {
				send[dst] = make([]byte, lc.PairBytes(c.Rank(), dst))
			}
			_, err := c.AllToAllV(send)
			return err
		default:
			return fmt.Errorf("simevent: unknown collective %q", lc.Collective)
		}
	})
	wall := time.Since(start)
	if err != nil {
		return LiveResult{}, err
	}
	return LiveResult{Wall: wall, Traffic: w.Traffic()}, nil
}

// MeasureLive runs the case reps times on fresh worlds (after one warmup
// run) and returns the median wall time with the per-step traffic. Median
// over fresh worlds, not mean over one world: a single scheduler hiccup
// then shifts one sample instead of the whole estimate.
func MeasureLive(lc LiveCase, reps int) (LiveResult, error) {
	if reps < 1 {
		reps = 1
	}
	if _, err := RunLive(lc); err != nil { // warmup: pools, code paths
		return LiveResult{}, err
	}
	walls := make([]time.Duration, 0, reps)
	var traffic mpi.Traffic
	for i := 0; i < reps; i++ {
		r, err := RunLive(lc)
		if err != nil {
			return LiveResult{}, err
		}
		if i > 0 && r.Traffic != traffic {
			return LiveResult{}, fmt.Errorf("simevent: live traffic varies across runs: %+v vs %+v", r.Traffic, traffic)
		}
		traffic = r.Traffic
		walls = append(walls, r.Wall)
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	return LiveResult{Wall: walls[len(walls)/2], Traffic: traffic}, nil
}
