// trainctl runs real distributed training on an in-process cluster: N
// learners × m devices executing Algorithm 1 (elastic.Run, the one run loop,
// with no faults scheduled) with the chosen allreduce algorithm, over
// synthetic data or the full DIMD pipeline (pack, partition, periodic
// shuffle, in-memory batches). The loss it prints is the mean over learners.
//
//	trainctl -learners 4 -devices 2 -steps 100 -alg multicolor
//	trainctl -dimd -shuffle-every 10 -model tinyresnet
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"time"

	"repro/internal/allreduce"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dimd"
	"repro/internal/elastic"
	"repro/internal/imagecodec"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

func main() {
	var (
		learners     = flag.Int("learners", 4, "number of learner nodes")
		devices      = flag.Int("devices", 2, "devices (simulated GPUs) per learner")
		steps        = flag.Int("steps", 100, "training steps")
		batch        = flag.Int("batch", 4, "batch per device")
		model        = flag.String("model", "smallcnn", "smallcnn | tinyresnet | tinyinception")
		alg          = flag.String("alg", "multicolor", "allreduce algorithm: ring|bucketring|rabenseifner|default|multicolor")
		lr           = flag.Float64("lr", 0.05, "peak learning rate")
		classes      = flag.Int("classes", 4, "number of classes")
		size         = flag.Int("size", 12, "image size (multiple of 4)")
		images       = flag.Int("images", 96, "dataset size")
		useDIMD      = flag.Bool("dimd", false, "use the full DIMD pipeline (codec pack + in-memory store)")
		useFiles     = flag.Bool("files", false, "use the baseline file-per-image loader DIMD replaces")
		shuffleEvery = flag.Int("shuffle-every", 10, "steps between DIMD shuffles (with -dimd)")
		seed         = flag.Int64("seed", 1, "random seed")
		compressAlg  = flag.String("compress", "", "gradient compression codec: none|int8|topk|bf16 (empty = raw float32 exchange through -alg)")
		topkRatio    = flag.Float64("topk-ratio", 0.1, "fraction of elements kept per bucket (with -compress=topk)")
		bucketFloats = flag.Int("bucket-floats", 16384, "bucketed-allreduce bucket size in float32 elements")
		errFeedback  = flag.Bool("error-feedback", true, "accumulate compression error into the next step (lossy codecs)")
		overlap      = flag.Bool("overlap", false, "reactive pipeline: overlap backward compute with the bucketed inter-node allreduce (bitwise identical to the phased bucketed path, i.e. the same -compress config with codec none when unset)")
		inFlight     = flag.Int("overlap-inflight", 0, "max gradient buckets in flight with -overlap (0 = default 8)")
		shardOpt     = flag.Bool("shard-optimizer", false, "ZeRO-1 sharded optimizer state: reduce-scatter gradients to shard owners, update only this rank's parameter shard, allgather updated params (bitwise identical to the replicated path; composes with -compress and -overlap)")
		nodes        = flag.Int("nodes", 0, "simulated node count: lays the learners out as -nodes × -ranks-per-node and routes the gradient exchange hierarchically (node members → node leader → inter-node leader chain; bitwise identical to the flat exchange; composes with -compress, -overlap, -shard-optimizer)")
		ranksPerNode = flag.Int("ranks-per-node", 0, "learner ranks per simulated node (with -nodes; default 1)")
	)
	flag.Parse()

	learnersSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "learners" {
			learnersSet = true
		}
	})
	var topo mpi.Topology
	if *nodes > 0 {
		rpn := *ranksPerNode
		if rpn <= 0 {
			rpn = 1
		}
		if learnersSet && *learners != *nodes*rpn {
			log.Fatalf("trainctl: -learners %d conflicts with -nodes %d × -ranks-per-node %d = %d (drop -learners or make them agree)",
				*learners, *nodes, rpn, *nodes*rpn)
		}
		*learners = *nodes * rpn
		topo = mpi.UniformTopology(*learners, rpn)
		fmt.Printf("topology: %d nodes × %d ranks/node — hierarchical gradient exchange\n", *nodes, rpn)
	} else if *ranksPerNode > 0 {
		log.Fatal("trainctl: -ranks-per-node requires -nodes")
	}

	newReplica := func(s int64) nn.Layer {
		rng := tensor.NewRNG(*seed*1000 + s)
		switch *model {
		case "tinyresnet":
			return models.NewTinyResNet(*classes, 1, rng)
		case "tinyinception":
			return models.NewTinyInception(*classes, rng)
		default:
			return models.NewSmallCNN(*classes, *size, rng)
		}
	}

	cfg := elastic.Config{
		Identities:     *learners,
		DevicesPerNode: *devices,
		GlobalBatch:    *batch * *devices * *learners,
		Steps:          *steps,
		NewReplica:     newReplica,
		InputC:         3, InputH: *size, InputW: *size,
		Learner: core.Config{
			Allreduce: allreduce.Algorithm(*alg),
			Schedule:  sgd.Const(*lr),
			SGD:       sgd.DefaultConfig(),
			Compression: compress.Config{
				Codec:         *compressAlg,
				TopKRatio:     *topkRatio,
				BucketFloats:  *bucketFloats,
				ErrorFeedback: *errFeedback,
			},
			Overlap:         *overlap,
			OverlapInFlight: *inFlight,
			ShardOptimizer:  *shardOpt,
			Topology:        topo,
		},
	}

	aug := imagecodec.Augment{Crop: *size, Mean: [3]float32{0.5, 0.5, 0.5}, Std: [3]float32{0.25, 0.25, 0.25}}
	switch {
	case *useDIMD:
		corpus, err := dataset.New(dataset.Spec{Classes: *classes, Train: *images, Size: *size + 8, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("packing %d synthetic images through the codec...\n", *images)
		pack := dimd.Build(*images, func(i int) (int, []byte) {
			return corpus.Label(i), corpus.EncodedImage(i, 80)
		})
		cfg.NewSource = func(rank, ranks, _ int) (core.BatchSource, error) {
			store, err := dimd.LoadPartition(pack, rank, ranks)
			return &core.DIMDSource{Store: store, Aug: aug, RNG: tensor.NewRNG(*seed + int64(rank))}, err
		}
		cfg.ShuffleEvery = *shuffleEvery
	case *useFiles:
		corpus, err := dataset.New(dataset.Spec{Classes: *classes, Train: *images, Size: *size + 8, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "trainctl-files-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		fmt.Printf("writing %d image files to %s (the baseline layout DIMD replaces)...\n", *images, dir)
		fs, err := dimd.WriteFileStore(dir, *images, func(i int) (int, []byte) {
			return corpus.Label(i), corpus.EncodedImage(i, 80)
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg.NewSource = func(rank, _, _ int) (core.BatchSource, error) {
			return &core.FileSource{Store: fs, Aug: aug, RNG: tensor.NewRNG(*seed + int64(rank))}, nil
		}
	default:
		cfg.NewSource = core.SliceSources(core.SyntheticTensorData(*images, *classes, *size, *seed))
	}

	start := time.Now()
	res, err := elastic.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	losses := res.Losses
	fmt.Printf("trained %d steps on %d learners × %d devices (%s, %s) in %v\n",
		*steps, *learners, *devices, *model, *alg, elapsed.Round(time.Millisecond))
	stride := *steps / 10
	if stride == 0 {
		stride = 1
	}
	for t := 0; t < *steps; t += stride {
		fmt.Printf("  step %4d  loss %.4f\n", t, losses[t])
	}
	fmt.Printf("  step %4d  loss %.4f\n", *steps-1, losses[*steps-1])

	inSync := true
	for _, r := range res.Ranks[1:] {
		inSync = inSync && slices.Equal(r.Weights, res.Ranks[0].Weights)
	}
	fmt.Printf("learners in sync: %v\n", inSync)

	ph := res.Ranks[0].Phases
	total := ph.Total()
	if total > 0 {
		mode := "Algorithm 1, phased"
		if *overlap {
			mode = "reactive pipeline; allreduce = exposed tail only"
		}
		fmt.Printf("learner 0 phase breakdown (%s):\n", mode)
		fmt.Printf("  data %5.1f%%  compute %5.1f%%  intra-node %5.1f%%  allreduce %5.1f%%  update %5.1f%%\n",
			100*ph.Data/total, 100*ph.Compute/total, 100*ph.IntraNode/total, 100*ph.AllReduce/total, 100*ph.Update/total)
	}
	if *shardOpt {
		fmt.Printf("sharded optimizer state (ZeRO-1): per-rank bytes:")
		for r, rr := range res.Ranks {
			fmt.Printf(" rank%d=%d", r, rr.OptStateBytes)
		}
		fmt.Println()
	}
	if cs := res.Ranks[0].CommStats; cs.BytesSent > 0 || cs.Buckets > 0 {
		codec := *compressAlg
		if codec == "" {
			codec = "none"
		}
		fmt.Printf("gradient compression (%s): sent %d bytes over %d buckets (raw %d, ratio %.2fx)\n",
			codec, cs.BytesSent, cs.Buckets, cs.RawBytes, cs.Ratio())
	}
}
