// Package simcluster models the paper's evaluation platform — the 32-node
// POWER8 Minsky cluster with four P100 GPUs per node and a dual-rail
// 100 Gb/s InfiniBand fat tree — and regenerates Figures 5-12 and Tables
// 1-2 of the evaluation from that model plus the live collectives' own wire
// schedules (allreduce's extraction), replayed by internal/simevent over
// the charged internal/simnet fabric.
//
// The pieces: schedules.go extracts and replays each allreduce algorithm
// and the DIMD shuffle, cluster.go holds the calibrated per-model
// compute/data constants and the step/epoch model, experiments.go
// reproduces the numbered figures and tables. Table 1 prints the paper's
// speedup beside the model's, with the residual.
//
// Figures 13-16 and the accuracy columns of Tables 1-2 are not reproduced:
// they come from ImageNet training runs, and a curve drawn from the paper's
// own numbers could not disagree with it. Their claim — the optimizations
// do not change convergence — is carried by the tree's bitwise-equivalence
// invariant instead: every schedule, codec route and topology produces the
// same weights (internal/core's TestOverlapMatchesPhasedBitwise,
// TestShardedMatchesReplicatedBitwise, TestHierarchicalMatchesFlatTraining
// and their kin), and TestAccuracyInvarianceAcrossNodeCounts trains one
// problem to the same quality on 1, 2 and 4 learners.
package simcluster
