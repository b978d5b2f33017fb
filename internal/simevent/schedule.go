package simevent

import (
	"fmt"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/mpi"
)

// Collective names one of the simulated exchange patterns.
type Collective string

const (
	// BucketRing is allreduce.AlgBucketRing: ring reduce-scatter composed
	// with ring allgather, raw float32 wire.
	BucketRing Collective = "bucketring"
	// Rabenseifner is allreduce.AlgRabenseifner: recursive halving +
	// recursive doubling with non-power-of-two fold-in, raw float32 wire.
	Rabenseifner Collective = "rabenseifner"
	// Hierarchical is the bucketed Stream's topology mode: codec-compressed
	// member payloads up to node leaders, a raw leader chain fold, raw fan
	// back down.
	Hierarchical Collective = "hierarchical"
	// ShardedRS is allreduce.BucketedReduceScatter over the uniform shard
	// layout: codec-compressed bucket payloads to each bucket's owners.
	ShardedRS Collective = "sharded-rs"
	// MultiColor is allreduce.AlgMultiColor, the paper's algorithm: the
	// vector split across k color trees, each chunk pipelined up and back
	// down its tree in BucketFloats-sized segments, raw float32 wire.
	MultiColor Collective = "multicolor"
	// PipelinedRing is allreduce.AlgRing, the paper's ring baseline:
	// BucketFloats-sized segments folded toward rank 0 and relayed back.
	PipelinedRing Collective = "ring"
	// AllToAllV is mpi.Comm.AllToAllV, the DIMD shuffle's exchange, with
	// Spec.PairBytes bytes from each rank to each other.
	AllToAllV Collective = "alltoallv"
)

// Collectives returns the simulated collectives in canonical order.
func Collectives() []Collective {
	return []Collective{BucketRing, Rabenseifner, Hierarchical, ShardedRS, MultiColor, PipelinedRing, AllToAllV}
}

// Compressed reports whether the collective puts codec payloads on the wire
// (the others carry raw float32 or bytes and ignore Spec.Codec).
func (c Collective) Compressed() bool { return c == Hierarchical || c == ShardedRS }

// WireSizer maps a bucket's element count to the exact payload bytes a
// codec puts on the wire, by probing the real encoder. Every codec in the
// tree produces data-independent payload sizes (identity 4n, int8 4+n,
// bf16 2n, topk 4+8·keep(n)), so probing a zero vector once per
// length is exact — and can never drift from the encoder, unlike a
// hand-copied size formula. Probes are cached per length. Not safe for
// concurrent use.
type WireSizer struct {
	codec compress.Codec
	cache map[int]int
}

// NewWireSizer wraps a codec (nil means identity — the raw wire).
func NewWireSizer(codec compress.Codec) *WireSizer {
	if codec == nil {
		codec = compress.Identity{}
	}
	return &WireSizer{codec: codec, cache: make(map[int]int)}
}

// Size returns the payload bytes of an elems-element bucket.
func (w *WireSizer) Size(elems int) int {
	if n, ok := w.cache[elems]; ok {
		return n
	}
	n := len(compress.Encode(w.codec, make([]float32, elems)))
	w.cache[elems] = n
	return n
}

// Spec describes one collective step to extract a schedule for.
type Spec struct {
	Collective Collective
	// Topo is the rank→node layout (also fixes the rank count). Only the
	// hierarchical collective routes by it, but every message is still
	// classified intra/inter by it in the engine.
	Topo mpi.Topology
	// Elems is the gradient vector length in float32 elements.
	Elems int
	// BucketFloats is the bucketed pipelines' bucket size and the pipelined
	// multi-color and ring collectives' segment size (0 = the live default);
	// the other collectives ignore it.
	BucketFloats int
	// Codec compresses the hierarchical up leg and the sharded payloads
	// (nil = identity). The raw-wire collectives ignore it.
	Codec compress.Codec
	// PairBytes is AllToAllV's payload in bytes from rank src to rank dst.
	PairBytes func(src, dst int) int
}

// BuildSchedule extracts the wire schedule for one collective step. The
// returned slice has one entry per rank of spec.Topo.
func BuildSchedule(spec Spec) ([]allreduce.RankSchedule, error) {
	ranks := len(spec.Topo.Node)
	if err := spec.Topo.Validate(ranks); err != nil {
		return nil, fmt.Errorf("simevent: %w", err)
	}
	if spec.Elems < 0 {
		return nil, fmt.Errorf("simevent: negative vector length %d", spec.Elems)
	}
	switch spec.Collective {
	case BucketRing:
		return allreduce.BucketRingSchedule(ranks, spec.Elems), nil
	case Rabenseifner:
		return allreduce.RabenseifnerSchedule(ranks, spec.Elems), nil
	case ShardedRS:
		sizer := NewWireSizer(spec.Codec)
		return allreduce.ShardedReduceScatterSchedule(ranks, spec.Elems, spec.BucketFloats, nil, sizer.Size), nil
	case Hierarchical:
		sizer := NewWireSizer(spec.Codec)
		return allreduce.HierarchicalSchedule(spec.Topo, spec.Elems, spec.BucketFloats, sizer.Size)
	case MultiColor:
		return allreduce.MultiColorSchedule(ranks, spec.Elems, allreduce.Options{SegmentFloats: spec.BucketFloats}), nil
	case PipelinedRing:
		return allreduce.PipelinedRingSchedule(ranks, spec.Elems, allreduce.Options{SegmentFloats: spec.BucketFloats}), nil
	case AllToAllV:
		if spec.PairBytes == nil {
			return nil, fmt.Errorf("simevent: %s needs Spec.PairBytes", AllToAllV)
		}
		return allreduce.AllToAllVSchedule(ranks, spec.PairBytes), nil
	default:
		return nil, fmt.Errorf("simevent: unknown collective %q", spec.Collective)
	}
}
