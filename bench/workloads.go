package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dimd"
	"repro/internal/imagecodec"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

const (
	classes     = 8
	warmupSteps = 20
	// lossWindow is how many steps the first-loss and final-loss means span.
	lossWindow = 20
	// learningRate is low enough that every workload's loss is still falling
	// when a run ends, so "the loss decreased" is a check with a wide margin
	// on every seed instead of a comparison of two memorised near-zeros.
	learningRate = 0.005
	// bucketFloats is the bucket size of both bucketed workloads.
	bucketFloats = 4096
)

// workload is one training job of the benchmark. The names and parameters
// are the contract later changes are compared under: edit them only in a
// change that claims no gain and re-records the baseline.
type workload struct {
	name, why string
	learners  int
	devices   int // model replicas per learner
	batch     int // images per device per step
	size      int // the model input is 3×size×size
	// steps is the work of a run of nominalSeconds: about that long at the
	// recording machine's speed when the workloads were fixed.
	steps int
	// chunk is how many steps every rank runs in one World.Run (about half a
	// second), and the DIMD shuffle period. It divides steps.
	chunk int
	// ranksPerNode lays the learners out on the topology world; inter is
	// the link between nodes (intra-node links are free).
	ranksPerNode int
	inter        mpi.LinkProfile
	model        func(seed int64) nn.Layer
	cfg          core.Config
	// dimd feeds the learners from DIMD stores of encoded images with a
	// cross-rank shuffle before every chunk; otherwise a SliceSource deals
	// synthetic tensors.
	dimd bool
}

func (w *workload) globalBatch() int { return w.learners * w.devices * w.batch }

// nominalSeconds is the run length the workloads' step counts are sized for.
const nominalSeconds = 30

// stepsFor turns the run length asked for into a fixed amount of work: the
// workload's step count scaled by seconds/nominalSeconds, in whole chunks.
// The same -seconds gives the same steps on every commit and machine, so
// every counter and the loss compare like for like.
func (w *workload) stepsFor(seconds float64) int {
	chunks := int(math.Round(seconds / nominalSeconds * float64(w.steps/w.chunk)))
	return max(chunks, 1) * w.chunk
}

var workloads = []*workload{
	{
		name:     "conv_phased",
		why:      "compute (nn/tensor/kernels through dpt's device workers, BN, residual blocks) is ~95% of the step and comm ~3%: GEMM/conv/DPT work shows here, comm work must not",
		learners: 2, devices: 2, batch: 4, size: 16, steps: 448, chunk: 8, ranksPerNode: 1,
		model: func(seed int64) nn.Layer { return models.NewTinyResNet(classes, 1, tensor.NewRNG(seed)) },
		cfg:   core.Config{Allreduce: allreduce.AlgMultiColor},
	},
	{
		name:     "wide_multicolor",
		why:      "raw multi-color allreduce of a 1.58 MB gradient on 4 ranks is most of the step, SGD update next: a collective, transport or pool change shows here and nowhere else",
		learners: 4, devices: 1, batch: 4, size: 16, steps: 3000, chunk: 50, ranksPerNode: 1,
		model: func(seed int64) nn.Layer { return core.AllocBenchModel(classes, 16, seed) },
		cfg:   core.Config{Allreduce: allreduce.AlgMultiColor},
	},
	{
		name:     "fabric_int8_sharded_overlap",
		why:      "bucketed Stream with int8+error feedback, owner routing, leader chain and param allgather over a 2x2 fabric whose wire time only overlap hides: catches a raw-path gain that costs the Stream",
		learners: 4, devices: 1, batch: 8, size: 24, steps: 1500, chunk: 25, ranksPerNode: 2,
		inter: mpi.LinkProfile{Latency: 200 * time.Microsecond, BytesPerSec: 256 << 20},
		model: func(seed int64) nn.Layer { return core.OverlapBenchModel(classes, 24, seed) },
		cfg: core.Config{
			Compression:     compress.Config{Codec: "int8", ErrorFeedback: true, BucketFloats: bucketFloats},
			Overlap:         true,
			OverlapInFlight: 8,
			ShardOptimizer:  true,
			Topology:        mpi.UniformTopology(4, 2),
		},
	},
	{
		name:     "dimd_input",
		why:      "decode+augment+sampling from DIMD stores is most of the step and the periodic AllToAllV shuffle lands in throughput only; also the phased bucketed (bf16) default route",
		learners: 2, devices: 1, batch: 16, size: 16, steps: 3500, chunk: 50, ranksPerNode: 1,
		model: func(seed int64) nn.Layer { return core.SmallBNFreeCNN(classes, 16, seed) },
		cfg:   core.Config{Compression: compress.Config{Codec: "bf16", BucketFloats: bucketFloats}},
		dimd:  true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	dimdImages    = 512
	dimdImageSize = 64
	dimdQuality   = 80
	// sliceImages is the synthetic tensor dataset a SliceSource deals from.
	sliceImages = 256
)

var dimdAugment = imagecodec.Augment{
	Crop: 16,
	Mean: imagecodec.DefaultAugment().Mean,
	Std:  imagecodec.DefaultAugment().Std,
}

// buildPack encodes the synthetic corpus of the given seed into one DIMD
// blob — the input of dimd_input and of the dimd layer measurements.
func buildPack(seed int64) (*dimd.Pack, error) {
	corpus, err := dataset.New(dataset.Spec{Classes: classes, Train: dimdImages, Size: dimdImageSize, Seed: seed})
	if err != nil {
		return nil, err
	}
	return dimd.Build(dimdImages, func(i int) (int, []byte) {
		return corpus.Label(i), corpus.EncodedImage(i, dimdQuality)
	}), nil
}

// timedSource is the seam between core and the input layer: when on, it
// times each NextBatch so the traced pass gets the data span from outside
// the learner.
type timedSource struct {
	inner       core.BatchSource
	on          bool
	start, stop time.Time
}

func (s *timedSource) NextBatch(x *tensor.Tensor, labels []int) error {
	if !s.on {
		return s.inner.NextBatch(x, labels)
	}
	s.start = time.Now()
	err := s.inner.NextBatch(x, labels)
	s.stop = time.Now()
	return err
}

// job is one set-up instance of a workload: a world, its learners after the
// weight broadcast and the warm-up steps, and what the run loop records.
type job struct {
	w        *workload
	seed     int64
	world    *mpi.World
	learners []*core.Learner
	sources  []*timedSource
	stores   []*dimd.Store // dimd workloads only
	shuffle  []*mpi.Comm   // dimd workloads only: isolated from the learner's exchange traffic
	losses   [][]float64   // per rank, one entry per step since the warm-up
	stepNs   []int64       // rank 0's Step durations since the warm-up
	steps    int           // steps since the warm-up
	chunks   int           // shuffles since set-up; seeds the next one
	shuffled mpi.Traffic   // wire bytes of the shuffles since the warm-up
	failed   atomic.Int64
}

// setup builds the job from the seed — data, world, model replicas, learners
// (which broadcast rank 0's weights) — and runs the untimed warm-up steps.
func setup(w *workload, seed int64) (*job, error) {
	j := &job{
		w: w, seed: seed,
		learners: make([]*core.Learner, w.learners),
		sources:  make([]*timedSource, w.learners),
		losses:   make([][]float64, w.learners),
	}
	topo := mpi.UniformTopology(w.learners, w.ranksPerNode)
	world, err := mpi.NewTopologyWorld(w.learners, topo, mpi.LinkProfile{}, w.inter)
	if err != nil {
		return nil, err
	}
	j.world = world

	var newSource func(rank int) (core.BatchSource, error)
	if w.dimd {
		pack, err := buildPack(seed)
		if err != nil {
			return nil, err
		}
		j.stores = make([]*dimd.Store, w.learners)
		j.shuffle = make([]*mpi.Comm, w.learners)
		newSource = func(rank int) (core.BatchSource, error) {
			st, err := dimd.LoadPartition(pack, rank, w.learners)
			if err != nil {
				return nil, err
			}
			j.stores[rank] = st
			return &core.DIMDSource{Store: st, Aug: dimdAugment, RNG: tensor.NewRNG(seed*31 + int64(rank) + 1)}, nil
		}
	} else {
		x, labels := core.SyntheticTensorData(sliceImages, classes, w.size, seed)
		newSource = func(rank int) (core.BatchSource, error) {
			return &core.SliceSource{X: x, Labels: labels, Rank: rank, Ranks: w.learners}, nil
		}
	}

	cfg := w.cfg
	cfg.BatchPerDevice = w.batch
	cfg.Schedule = sgd.Const(learningRate)
	cfg.SGD = sgd.DefaultConfig()
	all := make([]int, w.learners)
	for i := range all {
		all[i] = i
	}
	err = world.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		inner, err := newSource(rank)
		if err != nil {
			return err
		}
		j.sources[rank] = &timedSource{inner: inner}
		replicas := make([]nn.Layer, w.devices)
		for d := range replicas {
			replicas[d] = w.model(seed*1000 + int64(rank*w.devices+d) + 1)
		}
		l, err := core.NewLearner(c, replicas, j.sources[rank], 3, w.size, w.size, cfg)
		if err != nil {
			return err
		}
		j.learners[rank] = l
		if w.dimd {
			if j.shuffle[rank], err = c.Sub(all); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		j.close()
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if err := j.run(warmupSteps, nil); err != nil {
		j.close()
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	for r := range j.losses {
		j.losses[r] = make([]float64, 0, 1<<14)
	}
	j.stepNs = make([]int64, 0, 1<<14)
	j.steps = 0
	j.shuffled = mpi.Traffic{}
	return j, nil
}

// run executes one chunk — the DIMD shuffle if the workload has one, then
// steps training steps — on every rank and returns when all ranks are done,
// so the caller can look at the clock between chunks without the ranks
// having to agree on when to stop. With a recorder the chunk is traced.
func (j *job) run(steps int, rec *recorder) error {
	if j.stores != nil {
		// In a Run of its own, so that the bytes it moves (which depend on
		// the seed's image sizes) can be told from the gradient exchange's.
		before := j.world.Traffic()
		seed := j.seed*4096 + int64(j.chunks)
		j.chunks++
		err := j.world.Run(func(c *mpi.Comm) error {
			rank := c.Rank()
			t0 := time.Now()
			if err := j.stores[rank].Shuffle(j.shuffle[rank], dimd.ShuffleOptions{Seed: seed}); err != nil {
				j.world.Close() // unblocks the ranks waiting on this one
				return err
			}
			if rec != nil {
				rec.add(rank, span{name: "dimd.shuffle", start: t0, end: time.Now(), parent: -1, step: -1})
			}
			return nil
		})
		if err != nil {
			return err
		}
		after := j.world.Traffic()
		j.shuffled.IntraBytes += after.IntraBytes - before.IntraBytes
		j.shuffled.InterBytes += after.InterBytes - before.InterBytes
	}
	first := j.steps
	j.steps += steps
	return j.world.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		l, src := j.learners[rank], j.sources[rank]
		src.on = rec != nil
		for i := 0; i < steps; i++ {
			before := l.Phases()
			t0 := time.Now()
			loss, err := l.Step()
			t1 := time.Now()
			if err != nil {
				j.failed.Add(1)
				j.world.Close()
				return fmt.Errorf("rank %d step %d: %w", rank, first+i, err)
			}
			j.losses[rank] = append(j.losses[rank], loss)
			if rank == 0 {
				j.stepNs = append(j.stepNs, t1.Sub(t0).Nanoseconds())
			}
			if rec != nil {
				rec.addStep(rank, first+i, t0, t1, src, before, l.Phases())
			}
		}
		return nil
	})
}

func (j *job) close() {
	for _, l := range j.learners {
		if l != nil {
			l.Close()
		}
	}
	j.world.Close()
}

// lossMeans returns the mean over ranks of the first and the last lossWindow
// losses since the warm-up, and whether every loss was finite.
func (j *job) lossMeans() (first, last float64, finite bool) {
	finite = true
	for _, ls := range j.losses {
		for _, v := range ls {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
		}
		k := lossWindow
		if k > len(ls) {
			k = len(ls)
		}
		first += mean(ls[:k])
		last += mean(ls[len(ls)-k:])
	}
	n := float64(len(j.losses))
	return first / n, last / n, finite
}

// replicasIdentical reports whether every device of every rank holds
// bitwise-identical parameters — the invariant of synchronous SGD.
func (j *job) replicasIdentical() (bool, error) {
	ref, err := j.learners[0].FlatWeights()
	if err != nil {
		return false, err
	}
	for _, l := range j.learners {
		e := l.Engine()
		for d := 0; d < e.NumDevices(); d++ {
			i := 0
			for _, p := range e.Params(d) {
				for _, v := range p.Value.Data {
					if i >= len(ref) || math.Float32bits(v) != math.Float32bits(ref[i]) {
						return false, nil
					}
					i++
				}
			}
			if i != len(ref) {
				return false, nil
			}
		}
	}
	return true, nil
}

// flatInterBytesPerStep is the closed form of what the job's gradient
// exchange would put on inter-node links per step if every rank sent its raw
// float32 gradient to every rank on another node — the flat replicated
// exchange the hierarchical, compressed, owner-routed path must beat.
func (j *job) flatInterBytesPerStep() int64 {
	w := j.w
	offNode := int64(w.learners - w.ranksPerNode)
	return int64(w.learners) * offNode * 4 * int64(j.learners[0].Engine().GradSize())
}
