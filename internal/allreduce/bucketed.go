package allreduce

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/mpi"
)

// Compressed-allreduce tags live in this package's reserved band. Bucket b
// uses tagCompressed + b mod compressedTagSpan; the pipeline keeps only a
// handful of buckets in flight, so a span of 1024 can never alias two live
// buckets, and per-(src,tag) FIFO delivery handles reuse across rounds.
const (
	tagCompressed     = tagBase + 64
	compressedTagSpan = 1024
)

// Hierarchical-mode tag bands (see StreamOptions.Topology): member payloads
// up to the node leader, leader-chain partials, and the final sum back
// down. Each cycles mod hierTagSpan; the in-flight cap stays below the span
// so two live buckets never alias a tag.
const (
	tagHierUp    = tagBase + 3072
	tagHierChain = tagBase + 3328
	tagHierDown  = tagBase + 3584
	hierTagSpan  = 256
)

// CompressedOptions tunes BucketedAllReduce and BucketedReduceScatter.
type CompressedOptions struct {
	// BucketFloats is the bucket size in elements (default 16384).
	BucketFloats int
	// SelfDecoded, when non-nil (same length as data), receives the decode
	// of this rank's own payloads — the values the wire actually carried —
	// which error feedback needs to compute its residual.
	SelfDecoded []float32
	// ShardBounds is the shard layout for BucketedReduceScatter (see
	// StreamOptions.ShardBounds); nil means UniformBounds. It must be nil
	// for BucketedAllReduce.
	ShardBounds []int
	// Topology, when non-nil and set, routes every bucket hierarchically
	// over the node layout instead of all-to-all (see
	// StreamOptions.Topology). Results are bitwise identical to the flat
	// exchange; only the message routing changes.
	Topology *mpi.Topology
}

// CompressedStats counts the traffic of one or more BucketedAllReduce calls.
type CompressedStats struct {
	// BytesSent and BytesRecv are compressed wire bytes from this rank's
	// perspective (each counts payloads to/from all size-1 peers).
	BytesSent int64
	BytesRecv int64
	// RawBytes is what the same exchange would have moved uncompressed.
	RawBytes int64
	// Buckets is the number of buckets processed.
	Buckets int64
}

// Add accumulates other into s.
func (s *CompressedStats) Add(other CompressedStats) {
	s.BytesSent += other.BytesSent
	s.BytesRecv += other.BytesRecv
	s.RawBytes += other.RawBytes
	s.Buckets += other.Buckets
}

// Ratio returns the achieved compression ratio (raw / sent), or 1 when
// nothing was sent.
func (s CompressedStats) Ratio() float64 {
	if s.BytesSent == 0 {
		return 1
	}
	return float64(s.RawBytes) / float64(s.BytesSent)
}

// bucketJob carries one bucket through the three pipeline stages.
type bucketJob struct {
	idx      int
	lo, hi   int
	owned    bool // this rank receives/produces the bucket's Sum
	payload  []byte
	sendReqs []*mpi.Request // the payload's sends, in a window of Stream.sendRing
}

// BucketedAllReduce sums data across every rank of c through the given
// compression codec. It is the phased front of the streaming pipeline: the
// vector is split into fixed-size buckets, every bucket is submitted to a
// Stream — compress, exchange (Isend to all peers, Recv from each), decompress+reduce,
// with the stages on separate goroutines so communication of bucket i
// overlaps compression of bucket i+1 — and the call returns when the last
// bucket lands. The reactive training path uses the same Stream directly,
// submitting buckets as backward compute finalizes them, which is why the
// two paths produce bitwise-identical sums.
//
// The reduced value of every element is the sum of the DECODED payloads of
// all ranks, accumulated in rank order — identical bitwise on every rank —
// so synchronous-SGD replicas stay in lockstep even under lossy codecs.
// (This rank's own contribution is its decoded payload too, not its raw
// values: the compression error is accounted locally via SelfDecoded and,
// optionally, error feedback.)
func BucketedAllReduce(c *mpi.Comm, data []float32, codec compress.Codec, opts CompressedOptions) (CompressedStats, error) {
	if opts.ShardBounds != nil {
		return CompressedStats{}, fmt.Errorf("allreduce: ShardBounds set; use BucketedReduceScatter")
	}
	return bucketedExchange(c, data, codec, opts)
}

// BucketedReduceScatter is BucketedAllReduce stopped at the reduce-scatter
// boundary: each bucket's compressed payload travels only to the rank(s)
// whose shard [ShardBounds[r], ShardBounds[r+1]) overlaps the bucket, and on
// return data holds the global sum over every bucket overlapping this rank's
// shard (whole buckets, so the reduced region may extend past the shard to
// the enclosing bucket edges). Other ranges of data are untouched. A bucket's
// sum is accumulated in rank order from decoded payloads — bitwise identical
// to the same bucket under BucketedAllReduce — which is what lets a sharded
// optimizer step reproduce the replicated update bit for bit.
//
// ShardBounds nil defaults to the uniform layout. Wire traffic drops from
// (size-1) payload sends per bucket per rank to one send per overlapping
// owner (usually one, two when a bucket straddles a shard edge).
func BucketedReduceScatter(c *mpi.Comm, data []float32, codec compress.Codec, opts CompressedOptions) (CompressedStats, error) {
	if opts.ShardBounds == nil {
		opts.ShardBounds = UniformBounds(len(data), c.Size())
	}
	if err := checkBounds(c, opts.ShardBounds, len(data)); err != nil {
		return CompressedStats{}, err
	}
	return bucketedExchange(c, data, codec, opts)
}

// bucketedExchange opens a Stream, runs one Exchange round over data and
// closes it: the same round a training step runs on the Stream its learner
// keeps open.
func bucketedExchange(c *mpi.Comm, data []float32, codec compress.Codec, opts CompressedOptions) (CompressedStats, error) {
	if opts.SelfDecoded != nil && len(opts.SelfDecoded) != len(data) {
		return CompressedStats{}, fmt.Errorf("allreduce: SelfDecoded length %d, data length %d", len(opts.SelfDecoded), len(data))
	}
	if len(data) == 0 {
		return CompressedStats{}, nil
	}
	s := NewStream(c, codec, StreamOptions{SelfDecoded: opts.SelfDecoded, ShardBounds: opts.ShardBounds, Topology: opts.Topology})
	defer s.Close()
	return s.Exchange(data, opts.BucketFloats)
}
