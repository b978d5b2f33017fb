// Package allreduce implements the gradient-summation collectives the paper
// evaluates (Section 4.2, Figures 5-6): the multi-color k-ary-tree pipelined
// allreduce (the paper's contribution), a pipelined single-root ring (the
// paper's ring baseline), recursive doubling and Rabenseifner reduce-scatter/
// allgather (standing in for the default OpenMPI algorithm), and the classic
// bucket ring for ablation. All algorithms run over an mpi.Comm and reduce a
// float32 vector in place with summation, leaving the result on every rank.
//
// Underneath the allreduce algorithms sits a composable collectives layer
// (collectives.go): reduce-scatter and allgather over an explicit shard
// layout, in ring and recursive halving/doubling forms. The bucket ring and
// Rabenseifner allreduces are literally compositions of the two, AllGather
// is public, and the compressed bucketed Stream can stop at the
// reduce-scatter boundary (StreamOptions.ShardBounds) — the foundation for
// ZeRO-1-style sharded optimization in internal/core.
//
// The Stream is also topology-aware (StreamOptions.Topology,
// CompressedOptions.Topology): under an mpi.Topology describing the rank→node
// layout, bucket payloads route hierarchically — node members to their node
// leader over the cheap intra-node links, leaders chaining partial sums across
// the inter-node fabric in node order, the final leader fanning the result
// back out — cutting slow-link traffic per bucket from (size-1) payloads per
// rank to O(nodes) messages in total while staying bitwise identical to the
// flat exchange's rank-order reduction.
package allreduce
