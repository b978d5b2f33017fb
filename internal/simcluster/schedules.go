package simcluster

import (
	"fmt"

	"repro/internal/allreduce"
	"repro/internal/mpi"
	"repro/internal/simevent"
	"repro/internal/simnet"
)

// CommParams calibrates how the collective schedules map onto the fabric.
type CommParams struct {
	// SumRate is the rate (bytes/s) at which a host folds an incoming
	// network buffer into its local contribution (the paper uses PowerPC
	// altivec for this).
	SumRate float64
	// CopyRate models the default OpenMPI path's extra staging copies
	// through host buffers (no direct verbs pipelining), bytes/s.
	CopyRate float64
	// Segments is the pipeline depth of the ring and multi-color schedules:
	// the ring's payload, or one color's chunk, travels in this many
	// segments.
	Segments int
	// Colors is the multi-color k (paper: 4).
	Colors int
}

// DefaultCommParams returns the calibrated constants (the table under
// "Calibration constants" in docs/ARCHITECTURE.md records each fit).
func DefaultCommParams() CommParams {
	return CommParams{
		SumRate:  18e9,
		CopyRate: 0.9e9,
		Segments: 8,
		Colors:   4,
	}
}

// AllReduceTime replays one allreduce of payloadBytes across the first
// `nodes` hosts of topo, one learner per host, under the named algorithm and
// returns the makespan in seconds. The schedule is the live collective's own
// (allreduce's extraction), pipelined p.Segments deep; the fabric is
// charged. Multi-color's color c rides rail c mod Rails (a color is a stream,
// a stream picks its rail), so colors use both adapters; the ring and the
// default have one connection path — the limitation the multi-color design
// removes. The
// default is the stock OpenMPI large-message path: Rabenseifner with every
// round's payload staged through host buffers at CopyRate, the copy-bound
// path the paper replaces with direct Infiniband verbs.
func AllReduceTime(topo *simnet.FatTree, nodes int, alg allreduce.Algorithm, payloadBytes float64, p CommParams) (float64, error) {
	if nodes < 1 || nodes > topo.Hosts {
		return 0, fmt.Errorf("simcluster: %d nodes on %d-host fabric", nodes, topo.Hosts)
	}
	if nodes == 1 || payloadBytes == 0 {
		return 0, nil
	}
	elems := int(payloadBytes) / 4
	opts := allreduce.Options{Colors: max(p.Colors, 1)}
	perSegment := func(chunk int) int { // SegmentFloats splitting chunk elements into p.Segments
		segs := max(p.Segments, 1)
		return max((chunk+segs-1)/segs, 1)
	}
	cfg := simevent.Config{SumRate: p.SumRate}
	var scheds []allreduce.RankSchedule
	switch alg {
	case allreduce.AlgMultiColor:
		k := allreduce.EffectiveColors(nodes, opts.Colors)
		opts.SegmentFloats = perSegment((elems + k - 1) / k)
		scheds = allreduce.MultiColorSchedule(nodes, elems, opts)
	case allreduce.AlgRing:
		opts.SegmentFloats = perSegment(elems)
		scheds = allreduce.PipelinedRingSchedule(nodes, elems, opts)
	case allreduce.AlgDefault, allreduce.AlgRabenseifner:
		cfg.CopyRate = p.CopyRate
		scheds = allreduce.RabenseifnerSchedule(nodes, elems)
	default:
		return 0, fmt.Errorf("simcluster: no schedule extraction for %q", alg)
	}
	return replay(topo, scheds, cfg)
}

// replay runs one rank per host of topo through the event engine with the
// fabric charged and returns the makespan in seconds.
func replay(topo *simnet.FatTree, scheds []allreduce.RankSchedule, cfg simevent.Config) (float64, error) {
	var err error
	if cfg.Intra, cfg.Inter, err = topo.LinkProfiles(1); err != nil {
		return 0, err
	}
	cfg.Topo = mpi.UniformTopology(len(scheds), 1)
	cfg.Fabric = topo
	res, err := simevent.Run(scheds, cfg)
	if err != nil {
		return 0, err
	}
	return res.Makespan.Seconds(), nil
}

// AllToAllVTime replays the DIMD shuffle (Figures 7-9): every learner
// scatters its partition uniformly over its shuffle group with
// mpi.AllToAllV. perNodeBytes is the partition size held by each learner;
// packRate is the rate at which a host marshals image records into MPI
// buffers, one destination at a time ahead of that destination's send — the
// dominant cost at these message sizes (docs/ARCHITECTURE.md, "Calibration
// constants"). groups > 1 restricts traffic to contiguous groups of
// learners, each its own communicator.
//
// The host marshals every local record, self-destined ones included, since
// the whole partition is re-permuted (Algorithm 2's final local shuffle);
// that share never reaches the wire, so its pack time — paid ahead of the
// first send — is added to the replayed exchange. Because the per-node
// marshalling volume is the whole partition regardless of group size,
// group-restricted shuffles on a symmetric fabric take about the same time
// as the flat shuffle — the paper's Figure 9 observation.
func AllToAllVTime(topo *simnet.FatTree, nodes int, perNodeBytes float64, groups int, packRate float64) (float64, error) {
	if nodes < 1 || nodes > topo.Hosts {
		return 0, fmt.Errorf("simcluster: %d nodes on %d-host fabric", nodes, topo.Hosts)
	}
	per := max(nodes/max(groups, 1), 1)
	scheds := make([]allreduce.RankSchedule, 0, nodes)
	selfPack := 0.0
	for lo := 0; lo < nodes; lo += per {
		members := min(per, nodes-lo)
		pair := perNodeBytes / float64(members)
		selfPack = max(selfPack, pair/packRate)
		group := allreduce.AllToAllVSchedule(members, func(_, _ int) int { return int(pair) })
		for _, rank := range group { // group ranks are world ranks lo..lo+members-1
			for i := range rank[0] {
				rank[0][i].Peer += lo
			}
		}
		scheds = append(scheds, group...)
	}
	t, err := replay(topo, scheds, simevent.Config{CopyRate: packRate})
	return selfPack + t, err
}
