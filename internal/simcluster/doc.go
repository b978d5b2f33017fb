// Package simcluster models the paper's evaluation platform — the 32-node
// POWER8 Minsky cluster with four P100 GPUs per node and a dual-rail
// 100 Gb/s InfiniBand fat tree — and regenerates every figure and table of
// the evaluation from that model plus the live collectives' own wire
// schedules (allreduce's extraction), replayed by internal/simevent over
// the charged internal/simnet fabric.
//
// The pieces: schedules.go extracts and replays each allreduce algorithm
// and the DIMD shuffle, workloads.go holds the calibrated per-model
// compute/data constants, experiments.go reproduces the numbered figures
// and tables, accuracy.go and memory.go the statistical-efficiency and
// footprint models.
package simcluster
