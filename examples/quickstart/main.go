// Quickstart: train a small CNN with the full distributed stack — 4
// learners × 2 devices on an in-process cluster through elastic.Run, the one
// training loop, with multi-color allreduce and a Goyal-style warmup
// schedule — and watch the loss fall and every learner end with identical
// weights.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"slices"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

func main() {
	const (
		learners = 4
		devices  = 2
		classes  = 4
		size     = 12
		steps    = 120
	)
	dataX, dataLabels := core.SyntheticTensorData(96, classes, size, 42)

	var finalAcc float64
	res, err := elastic.Run(elastic.Config{
		Identities:     learners,
		DevicesPerNode: devices,
		GlobalBatch:    learners * devices * 3,
		Steps:          steps,
		NewReplica: func(seed int64) nn.Layer {
			return models.NewSmallCNN(classes, size, tensor.NewRNG(seed))
		},
		NewSource: core.SliceSources(dataX, dataLabels),
		InputC:    3, InputH: size, InputW: size,
		Learner: core.Config{
			Allreduce:     allreduce.AlgMultiColor,
			AllreduceOpts: allreduce.Options{Colors: 4},
			Schedule:      sgd.WarmupStep{Base: 0.02, Peak: 0.1, WarmupEpochs: 2, DropEvery: 20, DropFactor: 0.5},
			SGD:           sgd.DefaultConfig(),
			StepsPerEpoch: 4,
		},
		Eval: func(l *core.Learner) {
			acc, loss, err := l.Evaluate(dataX, dataLabels)
			if err != nil {
				log.Fatal(err)
			}
			finalAcc = acc
			fmt.Printf("eval @ step %d: accuracy %.1f%%, loss %.3f\n", l.StepCount(), 100*acc, loss)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nloss trajectory (mean over learners):\n")
	for t := 0; t < steps; t += 20 {
		fmt.Printf("  step %3d: %.4f\n", t, res.Losses[t])
	}
	fmt.Printf("  step %3d: %.4f\n", steps-1, res.Losses[steps-1])

	// Synchronous SGD invariant: all learners hold identical weights.
	identical := true
	for _, r := range res.Ranks[1:] {
		identical = identical && slices.Equal(r.Weights, res.Ranks[0].Weights)
	}
	fmt.Printf("\nall %d learners hold identical weights: %v\n", learners, identical)
	fmt.Printf("final training accuracy: %.1f%%\n", 100*finalAcc)
}
