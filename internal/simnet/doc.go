// Package simnet describes the fat-tree InfiniBand fabric of the paper's
// POWER8 Minsky cluster: hosts connect to leaf switches through parallel
// rails (the two ConnectX-5 adapters per node), leaves connect to every
// spine, every link is directional with its own bandwidth, and a route is a
// fixed hash of source, destination and rail.
//
// This is the substitution for measuring on real InfiniBand hardware. The
// description is consumed two ways: internal/simevent charges it — the
// transfers of a replayed collective share each Route's links max-min
// fairly, which is where per-rail bandwidth limits, link sharing among
// concurrent tree colors, incast at roots and oversubscribed spines (the
// phenomena behind the paper's Figures 5-9) come from — and
// FatTree.LinkProfiles reduces it to the per-level link profiles the
// in-process mpi topology worlds charge as asymmetric intra-node vs
// inter-node costs.
package simnet
