// Package core implements the paper's primary contribution: the optimized
// data-parallel synchronous SGD engine of Algorithm 1, wiring together the
// DIMD in-memory data store (internal/dimd), the multi-color allreduce
// (internal/allreduce) and the optimized Data-Parallel Table
// (internal/dpt).
//
// One Learner is one MPI process on one compute node driving m local
// devices. Each training iteration: the learner samples its share of the
// global batch from its in-memory store, the DPT engine computes per-device
// gradients, gradients are summed intra-node, summed across learners with
// the configured MPI allreduce, broadcast back to the devices, and every
// device applies the SGD update — leaving all replicas bitwise identical.
//
// There is one step — Learner.Step — built from three stages that each work
// on a range [lo, hi) of the flattened gradient, in place in device 0's
// gradient arena: pack (add the other devices' gradients in + error-feedback
// correct), exchange (the inter-node sum) and apply (step the range, reading
// the sum once and normalizing it on the way).
// Everything else is a choice of order or of data, never of arithmetic, so
// every combination ends in bitwise-identical parameters under the same
// Compression config (docs/ARCHITECTURE.md has the tables):
//
//   - Config.Overlap picks the order: stage-major runs each stage once over
//     the whole vector on the stepping goroutine (Algorithm 1 as written,
//     phases disjoint in wall time); bucket-major (reactive.go) runs them
//     per bucket underneath backward, hiding communication under compute.
//   - Config.ShardOptimizer (ZeRO-1, sharded.go) is data: the shard layout
//     handed to the exchange, one optimizer over device 0 instead of one per
//     device, and a parameter allgather closing the step.
//   - Config.Topology is data: the node layout handed to the exchange.
//   - Config.Compression selects the bucketed codec Stream; without it (and
//     stage-major, replicated, flat) the exchange is one of the raw
//     algorithms the paper compares (Config.Allreduce). The raw multi-colour
//     tree also takes the apply stage: each colour's root steps its chunk,
//     the one rank holding that chunk's momentum, and the tree broadcasts
//     weights instead of the sum.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/dimd"
	"repro/internal/dpt"
	"repro/internal/imagecodec"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

// BatchSource produces one local mini-batch per call into x (shape
// [Bnode, C, H, W]) and labels. Implementations: DIMDSource (the paper's
// in-memory path), SliceSource (deterministic, for equivalence tests), and
// any test double.
type BatchSource interface {
	NextBatch(x *tensor.Tensor, labels []int) error
}

// DIMDSource samples random batches from a learner's DIMD store, decoding
// and augmenting on the fly — the paper's Figure 1 data path.
type DIMDSource struct {
	Store *dimd.Store
	Aug   imagecodec.Augment
	RNG   *tensor.RNG
}

// NextBatch implements BatchSource.
func (s *DIMDSource) NextBatch(x *tensor.Tensor, labels []int) error {
	return s.Store.SampleTensors(s.RNG, s.Aug, x, labels)
}

// FileSource samples batches from the baseline file-per-image layout
// (dimd.FileStore) — the I/O path whose random small reads the paper
// identifies as the scaling bottleneck that DIMD removes.
type FileSource struct {
	Store *dimd.FileStore
	Aug   imagecodec.Augment
	RNG   *tensor.RNG
}

// NextBatch implements BatchSource.
func (s *FileSource) NextBatch(x *tensor.Tensor, labels []int) error {
	batch, err := s.Store.RandomBatch(s.RNG, x.Dim(0))
	if err != nil {
		return err
	}
	return dimd.DecodeToTensors(batch, s.RNG, s.Aug, x, labels)
}

// SliceSource deals deterministic slices of a fixed dataset: on step t,
// learner rank of numRanks receives rows
// [t·B + rank·Bnode, t·B + (rank+1)·Bnode) mod N. It makes the distributed
// run process exactly the same global batch as a serial run, which the
// serial-vs-distributed equivalence tests rely on.
type SliceSource struct {
	X      *tensor.Tensor // full dataset [N, C, H, W]
	Labels []int
	Rank   int
	Ranks  int
	// StartStep offsets the dealing clock: the first NextBatch serves the
	// rows of global step StartStep. A run resumed from a checkpoint at
	// step k sets StartStep=k so the data stream continues where the
	// snapshot left off — with GlobalBatch held constant, the union over
	// ranks is then the same global batch sequence at any world size,
	// which keeps post-recovery loss trajectories comparable to a
	// failure-free run.
	StartStep int
	step      int
}

// NextBatch implements BatchSource. When the dataset size is not a multiple
// of the global batch, slices wrap around the end of the dataset; wrapping
// is deterministic, so the serial-vs-distributed alignment still holds.
func (s *SliceSource) NextBatch(x *tensor.Tensor, labels []int) error {
	bNode := x.Dim(0)
	n := s.X.Dim(0)
	if bNode > n {
		return fmt.Errorf("core: node batch %d larger than dataset %d", bNode, n)
	}
	start := ((s.StartStep+s.step)*bNode*s.Ranks + s.Rank*bNode) % n
	rowLen := s.X.Len() / n
	first := bNode
	if start+first > n {
		first = n - start
	}
	copy(x.Data, s.X.Data[start*rowLen:(start+first)*rowLen])
	copy(labels, s.Labels[start:start+first])
	if rest := bNode - first; rest > 0 {
		copy(x.Data[first*rowLen:], s.X.Data[:rest*rowLen])
		copy(labels[first:], s.Labels[:rest])
	}
	s.step++
	return nil
}

// SliceSources deals x and labels to a run's ranks as SliceSources: the
// source factory (elastic.Config.NewSource) for a dataset held in memory.
func SliceSources(x *tensor.Tensor, labels []int) func(rank, ranks, startStep int) (BatchSource, error) {
	return func(rank, ranks, startStep int) (BatchSource, error) {
		return &SliceSource{X: x, Labels: labels, Rank: rank, Ranks: ranks, StartStep: startStep}, nil
	}
}

// Config assembles a learner.
type Config struct {
	// BatchPerDevice is the paper's k (64 default, 32 for the record run).
	BatchPerDevice int
	// Allreduce selects the gradient-summation algorithm.
	Allreduce allreduce.Algorithm
	// AllreduceOpts tunes it.
	AllreduceOpts allreduce.Options
	// Schedule maps epochs to learning rates.
	Schedule sgd.Schedule
	// SGD sets momentum/weight decay.
	SGD sgd.Config
	// StepsPerEpoch converts the step counter to fractional epochs for the
	// schedule. Zero means LR(0) throughout.
	StepsPerEpoch int
	// GradScale overrides the default 1/(ranks·devices) gradient scaling
	// when nonzero (tests use 1 to inspect raw sums).
	GradScale float32
	// Compression, when its Codec is set, routes the inter-node gradient
	// exchange through the bucketed compressed allreduce instead of the
	// Allreduce algorithm above. Codec "none" keeps values exact while using
	// the same bucketed path (for byte-accounting comparisons); "int8" and
	// "topk" are lossy and usually pair with ErrorFeedback.
	Compression compress.Config
	// Overlap switches the step to the reactive gradient pipeline: buckets
	// of the flattened gradient are intra-node reduced, compressed, and
	// launched into the asynchronous inter-node exchange as backward compute
	// finalizes them, and the SGD update applies per bucket as results land.
	// The final parameters are bitwise identical to the phased bucketed path
	// with the same Compression config (an empty Codec behaves like "none":
	// the exact identity codec over the bucketed transport). Bucket size
	// comes from Compression.BucketFloats (default 16384 floats).
	Overlap bool
	// OverlapInFlight caps how many buckets the reactive pipeline keeps in
	// flight at once (default 8).
	OverlapInFlight int
	// ShardOptimizer enables ZeRO-1-style sharded data parallelism: each
	// rank owns a contiguous shard of whole parameters (balanced by element
	// count), holds only that shard's momentum, and applies only its shard's
	// update. The step becomes reduce-scatter (each gradient bucket's
	// compressed payload travels only to its shard owners) → local shard
	// update → allgather of the updated parameters, instead of allreduce →
	// full update — so per-rank optimizer-state memory and update cost scale
	// as ~1/world-size. The gradient exchange runs the bucketed codec path
	// (Compression; an empty Codec means the exact identity codec, like
	// Overlap), composes with error feedback and with the reactive Overlap
	// pipeline, and the final parameters are bitwise identical to the
	// replicated path under the same Compression config.
	ShardOptimizer bool
	// Topology, when set, is the rank→node layout of the cluster (e.g.
	// mpi.UniformTopology(learners, ranksPerNode)): the gradient exchange
	// then routes every bucket hierarchically — node members talk only to
	// their node's leader, leaders chain partial sums across the
	// inter-node fabric, and the result fans back out — so slow-link
	// traffic per bucket drops from (world-1) payloads per rank to
	// O(nodes) messages in total. The exchange always runs the bucketed
	// codec path (an empty Codec means the exact identity codec, like
	// Overlap), composes with Compression, Overlap, and ShardOptimizer,
	// and the final parameters are bitwise identical to the flat exchange
	// under the same config: the leader chain folds decoded payloads in
	// global rank order, exactly like the flat path.
	Topology mpi.Topology
}

// PhaseTimes accumulates wall time per Algorithm 1 phase — the step
// decomposition the paper's evaluation reasons about (data loading vs
// compute vs communication). All fields are cumulative seconds.
//
// In stage-major order the phases are disjoint wall-clock intervals tiling
// the step (error-feedback correction rides in IntraNode with the pack it
// belongs to; the sharded parameter allgather counts as AllReduce; on the
// raw multi-colour route the SGD step runs at the colour roots inside the
// exchange, so it counts as AllReduce too, and Update is only the copy of
// the new weights to the other devices). In
// bucket-major order (Config.Overlap) they are not: Compute covers the
// backward pass with the bucket pipeline running underneath it, IntraNode
// and Update are folded into the pipeline, and AllReduce records only the
// EXPOSED communication — the tail the step still waits on after backward
// finishes. A shrinking AllReduce share against the stage-major baseline is
// the overlap win.
type PhaseTimes struct {
	Data      float64 // batch sampling/decoding (DIMD or file I/O)
	Compute   float64 // per-device forward/backward via the DPT engine
	IntraNode float64 // intra-node gradient summation
	AllReduce float64 // inter-node MPI allreduce (exposed tail when overlapped)
	Update    float64 // gradient broadcast to devices + SGD step
}

// Total returns the sum over phases.
func (p PhaseTimes) Total() float64 {
	return p.Data + p.Compute + p.IntraNode + p.AllReduce + p.Update
}

// Learner is one node of the distributed trainer.
type Learner struct {
	comm   *mpi.Comm
	engine *dpt.Engine
	source BatchSource
	cfg    Config
	// gradBuf is device 0's gradient arena (engine.Grads(0)), not a copy:
	// backward leaves device 0's gradient in it, pack adds the other
	// devices' in, the exchange reduces it in place, apply reads it.
	gradBuf []float32
	x       *tensor.Tensor
	labels  []int
	step    int
	scale   float32
	phases  PhaseTimes

	// opts are the optimizers a step advances. Replicated: one per device,
	// opts[d] updating device d's replica. Sharded, and on the raw
	// multi-colour route: one optimizer over device 0 that holds momentum
	// only for this rank's element bounds — paramShardBounds' shard, or the
	// chunk this rank roots (allreduce.ColorRootBounds) — and the step ends
	// by copying device 0's weights to the others. They all read the one
	// reduced gradient, and StepRange keeps each to its own range, so no
	// mode is a branch in apply.
	opts []*sgd.SGD
	// lr is the step's learning rate, written before the step's stages run;
	// apply and rootUpdate read it.
	lr float32
	// rootUpdate is the raw multi-colour route's turnaround hook
	// (allreduce.MultiColorUpdate): the colour root steps each globally
	// reduced segment of its chunk, and the tree broadcasts the weights.
	// Bound once here, so a step allocates no closure; nil on every other
	// route, which steps after the exchange instead.
	rootUpdate func(lo, hi int)

	// Exchange. stream nil selects the raw Config.Allreduce algorithm;
	// otherwise it is the bucketed codec Stream, opened once with elemBounds
	// (the param-aligned shard layout, length Size+1; nil when replicated)
	// and topo (nil when flat) as data, and every step is one round of it:
	// an Exchange stage-major, the packer's submissions bucket-major.
	stream     *allreduce.Stream
	elemBounds []int
	topo       *mpi.Topology
	commStats  allreduce.CompressedStats

	// Error-feedback state (nil unless Compression.ErrorFeedback).
	feedback    *compress.Feedback
	corrected   []float32 // gradient after residual correction, pre-exchange
	selfDecoded []float32 // decode of this rank's own transmitted payloads

	// pipeline is the bucket-major order's plan (nil when Overlap is off);
	// see reactive.go.
	pipeline *bucketPlan

	paramAGBytes int64 // cumulative wire bytes (send+recv) of the sharded tail's parameter allgather
}

// NewLearner constructs a learner over comm from per-device model replicas.
// Rank 0's weights are broadcast so every replica in the job starts
// identical (Algorithm 1's "initialize W with identical values on all
// GPUs"). inputC/H/W describe the model input (3×224×224 for the paper's
// models; smaller for the functional experiments).
func NewLearner(comm *mpi.Comm, replicas []nn.Layer, source BatchSource, inputC, inputH, inputW int, cfg Config) (*Learner, error) {
	if cfg.BatchPerDevice <= 0 {
		return nil, errors.New("core: BatchPerDevice must be positive")
	}
	if cfg.Schedule == nil {
		cfg.Schedule = sgd.Const(0.1)
	}
	if cfg.Allreduce == "" {
		cfg.Allreduce = allreduce.AlgMultiColor
	}
	engine, err := dpt.New(replicas, true)
	if err != nil {
		return nil, err
	}
	l := &Learner{
		comm:    comm,
		engine:  engine,
		source:  source,
		cfg:     cfg,
		gradBuf: engine.Grads(0),
	}
	if cfg.Topology.IsSet() {
		if err := cfg.Topology.Validate(comm.Size()); err != nil {
			engine.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
		l.topo = &cfg.Topology
	}
	var codec compress.Codec
	if cfg.Compression.Enabled() || cfg.Overlap || cfg.ShardOptimizer || l.topo != nil {
		codec, err = compress.New(cfg.Compression)
		if err != nil {
			engine.Close()
			return nil, err
		}
		if cfg.Compression.ErrorFeedback {
			l.feedback = compress.NewFeedback(engine.GradSize())
			l.corrected = make([]float32, engine.GradSize())
			l.selfDecoded = make([]float32, engine.GradSize())
		}
	}
	if cfg.Overlap {
		l.pipeline = newBucketPlan(engine, cfg.Compression.BucketFloats)
	}
	m := engine.NumDevices()
	bNode := cfg.BatchPerDevice * m
	l.x = tensor.New(bNode, inputC, inputH, inputW)
	l.labels = make([]int, bNode)
	l.scale = cfg.GradScale
	if l.scale == 0 {
		l.scale = 1 / float32(comm.Size()*m)
	}
	rank := comm.Rank()
	switch {
	case cfg.ShardOptimizer:
		l.elemBounds = paramShardBounds(engine, comm.Size())
		l.opts = []*sgd.SGD{sgd.NewShard(engine.Params(0), cfg.SGD, l.elemBounds[rank], l.elemBounds[rank+1])}
	case codec == nil && cfg.Allreduce == allreduce.AlgMultiColor:
		b := allreduce.ColorRootBounds(comm.Size(), engine.GradSize(), cfg.AllreduceOpts)
		l.opts = []*sgd.SGD{sgd.NewShard(engine.Params(0), cfg.SGD, b[rank], b[rank+1])}
		l.rootUpdate = l.updateRange
	default:
		for d := 0; d < m; d++ {
			l.opts = append(l.opts, sgd.New(engine.Params(d), cfg.SGD))
		}
	}
	if err := l.broadcastInitialWeights(); err != nil {
		engine.Close()
		return nil, err
	}
	if codec != nil {
		// With elemBounds set the stream stops at the reduce-scatter
		// boundary: bucket payloads travel only to their shard owners, and
		// buckets this rank does not own surface with a nil Sum.
		opts := allreduce.StreamOptions{SelfDecoded: l.selfDecoded, ShardBounds: l.elemBounds, Topology: l.topo}
		if l.pipeline != nil {
			opts.MaxInFlight = cfg.OverlapInFlight
		}
		l.stream = allreduce.NewStream(comm, codec, opts)
		if p := l.pipeline; p != nil {
			// The packer and the collector serve every step until Close.
			p.stopped.Add(2)
			go l.packBuckets()
			go l.applyBuckets()
		}
	}
	return l, nil
}

// broadcastInitialWeights synchronizes rank 0's replica-0 weights to every
// device on every learner.
func (l *Learner) broadcastInitialWeights() error {
	flat := l.engine.Values(0)
	var payload []byte
	if l.comm.Rank() == 0 {
		payload = mpi.Float32sToBytes(flat)
	}
	got, err := l.comm.Bcast(0, payload)
	if err != nil {
		return err
	}
	if len(got) != 4*len(flat) {
		return fmt.Errorf("core: weight bcast got %d bytes, want %d", len(got), 4*len(flat))
	}
	mpi.DecodeFloat32s(flat, got)
	return l.engine.SetValues(flat)
}

// Step runs one iteration of Algorithm 1 and returns this learner's local
// mean loss. Per-phase wall times accumulate in Phases. The three stages
// below (pack, exchange, apply) run in one of two orders — stage-major here,
// bucket-major under backward in reactive.go — with the same arithmetic on
// the same values, so the parameters come out bitwise identical.
//
// What a step leaves behind is the updated weights, identical on every
// replica. The replicas' Param.Grad tensors are the step's working storage
// (see nn.Param.Grad): a replica's own gradient from backward's end until
// the stages consume its range, then sums in progress on device 0 and stale
// values elsewhere. The normalized global gradient is never materialized.
func (l *Learner) Step() (float64, error) {
	// 1. Sample Bnode images locally (random from the in-memory store).
	t0 := time.Now()
	if err := l.source.NextBatch(l.x, l.labels); err != nil {
		return 0, fmt.Errorf("core: sampling batch: %w", err)
	}
	t1 := time.Now()
	l.phases.Data += t1.Sub(t0).Seconds()
	l.lr = l.currentLR()
	var loss float64
	var err error
	if l.pipeline != nil {
		loss, err = l.stepBucketMajor(t1)
	} else {
		loss, err = l.stepStageMajor(t1)
	}
	if err != nil {
		return 0, err
	}
	// Shared tail: allgather the updated shards (nothing to do when every
	// rank updated everything). Exposed communication in either order.
	t5 := time.Now()
	if err := l.allGatherParams(); err != nil {
		return 0, err
	}
	l.phases.AllReduce += time.Since(t5).Seconds()
	l.step++
	return loss, nil
}

// stepStageMajor runs each stage once over the whole vector on the calling
// goroutine: Algorithm 1 as written, its phases disjoint wall-clock
// intervals. t1 is the batch-sampling end time (Data is already accounted).
func (l *Learner) stepStageMajor(t1 time.Time) (float64, error) {
	// 2. Per-device forward/backward.
	loss, err := l.engine.Step(l.x, l.labels)
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	l.phases.Compute += t2.Sub(t1).Seconds()
	// 3. Intra-node summation.
	if err := l.pack(0, len(l.gradBuf)); err != nil {
		return 0, err
	}
	t3 := time.Now()
	l.phases.IntraNode += t3.Sub(t2).Seconds()
	// 4. Global inter-node summation. The residual is rank-local (own
	// corrected gradient vs own transmitted payloads), so it closes over the
	// whole vector even when the sum lands only on this rank's shard.
	if err := l.exchange(); err != nil {
		return 0, fmt.Errorf("core: gradient exchange: %w", err)
	}
	l.residual(0, len(l.gradBuf))
	t4 := time.Now()
	l.phases.AllReduce += t4.Sub(t3).Seconds()
	// 5+6. Each device performs SGD, reading the one reduced gradient (the
	// paper's broadcast to local devices is that shared read). On the raw
	// multi-colour route the roots already stepped inside the exchange, and
	// device 0 holds the new weights: the rest is the copy to the others.
	if l.rootUpdate != nil {
		if err := l.engine.SetValues(l.engine.Values(0)); err != nil {
			return 0, err
		}
	} else {
		l.apply(0, len(l.gradBuf), l.gradBuf)
	}
	l.phases.Update += time.Since(t4).Seconds()
	return loss, nil
}

// pack is the first stage over [lo, hi): the intra-node sum of the devices'
// gradients, in place in gradBuf — device 0's are already there, so with one
// device this is nothing — plus the error-feedback correction. Over the
// whole vector it is bitwise dpt's SumGrads followed by Feedback.Correct.
func (l *Learner) pack(lo, hi int) error {
	seg := l.gradBuf[lo:hi]
	if err := l.engine.ReduceRangeInto(seg, lo, hi); err != nil {
		return err
	}
	if l.feedback != nil {
		l.feedback.CorrectAt(lo, seg)
		copy(l.corrected[lo:hi], seg)
	}
	return nil
}

// exchange is the second stage in stage-major order: gradBuf becomes the
// global sum (over this rank's shard's buckets when sharded) — or, on the raw
// multi-colour route, the colour roots step their chunks and device 0's
// weight arena becomes the new weights. This is the one place that decides
// raw vs bucketed; bucket-major always runs the bucketed Stream
// (stepBucketMajor).
func (l *Learner) exchange() error {
	if l.rootUpdate != nil {
		return allreduce.MultiColorUpdate(l.comm, l.gradBuf, l.engine.Values(0), l.cfg.AllreduceOpts, l.rootUpdate)
	}
	if l.stream == nil {
		return allreduce.AllReduce(l.comm, l.gradBuf, l.cfg.Allreduce, l.cfg.AllreduceOpts)
	}
	st, err := l.stream.Exchange(l.gradBuf, l.cfg.Compression.BucketFloats)
	l.commStats.Add(st)
	return err
}

// residual closes the error-feedback loop over [lo, hi) once the exchange
// has transmitted it: what the codec failed to carry becomes next step's
// correction.
func (l *Learner) residual(lo, hi int) {
	if l.feedback != nil {
		l.feedback.UpdateAt(lo, l.corrected[lo:hi], l.selfDecoded[lo:hi])
	}
}

// apply is the third stage: sum — the global gradient sum over [lo, hi) —
// takes its SGD step on every replica an optimizer updates, each optimizer
// keeping to its own element range, in one pass that reads the sum once and
// normalizes it on the way (scale turns the sum of per-device partition
// means into the global batch mean, so the learning rate has the Goyal
// semantics). Stage-major, sum is gradBuf itself; bucket-major it is a
// Stream result the collector is about to release. The update is
// elementwise, so over the whole vector this is bitwise a scale pass, dpt's
// SetGrads and a full optimizer Step, and any split into ranges gives the
// same bits.
func (l *Learner) apply(lo, hi int, sum []float32) {
	for _, o := range l.opts {
		o.StepRange(lo, hi, l.lr, sum, l.scale)
	}
}

// updateRange is rootUpdate: at its colour's turnaround the root steps
// [lo, hi), whose global sum is in gradBuf, into device 0's weights.
func (l *Learner) updateRange(lo, hi int) {
	l.opts[0].StepRange(lo, hi, l.lr, l.gradBuf[lo:hi], l.scale)
}

// Phases returns the cumulative per-phase wall times.
func (l *Learner) Phases() PhaseTimes { return l.phases }

// CommStats returns the cumulative bucketed-exchange traffic counters (zero
// when the exchange is a raw algorithm).
func (l *Learner) CommStats() allreduce.CompressedStats { return l.commStats }

func (l *Learner) currentLR() float32 {
	epoch := 0.0
	if l.cfg.StepsPerEpoch > 0 {
		epoch = float64(l.step) / float64(l.cfg.StepsPerEpoch)
	}
	return float32(l.cfg.Schedule.LR(epoch))
}

// StepCount returns the number of completed steps.
func (l *Learner) StepCount() int { return l.step }

// Engine exposes the DPT engine (weights, stats).
func (l *Learner) Engine() *dpt.Engine { return l.engine }

// FlatWeights returns a copy of the current model weights.
func (l *Learner) FlatWeights() ([]float32, error) {
	flat := make([]float32, l.engine.GradSize())
	if err := nn.FlattenValues(l.engine.Params(0), flat); err != nil {
		return nil, err
	}
	return flat, nil
}

// Evaluate computes top-1 accuracy and mean loss of the current model over
// the given tensors.
func (l *Learner) Evaluate(x *tensor.Tensor, labels []int) (acc float64, loss float64, err error) {
	logits, err := l.engine.Predict(x)
	if err != nil {
		return 0, 0, err
	}
	crit := nn.NewSoftmaxCrossEntropy()
	loss, err = crit.Forward(logits, labels)
	if err != nil {
		return 0, 0, err
	}
	return nn.Accuracy(logits, labels), loss, nil
}

// Close stops the exchange's goroutines and the device workers and returns
// once they have finished. A second Close does nothing.
func (l *Learner) Close() {
	if l.pipeline != nil {
		close(l.pipeline.ready) // the packer closes the Stream on its way out
		l.pipeline.stopped.Wait()
	} else if l.stream != nil {
		l.stream.Close()
	}
	l.pipeline, l.stream = nil, nil
	l.engine.Close()
}
