// shuffle walks through the complete DIMD data path of the paper's
// Section 4.1 on real bytes: generate a synthetic corpus, resize+compress it
// into the packed blob+index, load partitions onto 4 learners, run the
// cross-learner alltoallv shuffle, and fetch a random decoded batch. The
// simulated shuffle times at the paper's scale (Figures 7-9) are
// `benchtool exp fig7 fig8 fig9`.
//
// Run: go run ./examples/shuffle
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/dataset"
	"repro/internal/dimd"
	"repro/internal/imagecodec"
	"repro/internal/mpi"
	"repro/internal/tensor"
)

func main() {
	const (
		images   = 128
		classes  = 8
		imgSize  = 64
		learners = 4
	)
	corpus, err := dataset.New(dataset.Spec{Classes: classes, Train: images, Size: imgSize, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Offline preprocessing: resize (already at size), compress, concatenate.
	start := time.Now()
	pack := dimd.Build(images, func(i int) (int, []byte) {
		return corpus.Label(i), corpus.EncodedImage(i, 80)
	})
	raw := images * 3 * imgSize * imgSize
	fmt.Printf("packed %d images: %d KB raw -> %d KB blob (%.1fx) in %v\n",
		images, raw/1024, len(pack.Blob)/1024, float64(raw)/float64(len(pack.Blob)), time.Since(start).Round(time.Millisecond))

	// Partitioned load + shuffle + random batch on an in-process cluster.
	world := mpi.NewWorld(learners)
	defer world.Close()
	err = world.Run(func(c *mpi.Comm) error {
		store, err := dimd.LoadPartition(pack, c.Rank(), learners)
		if err != nil {
			return err
		}
		before := store.Len()
		if err := store.Shuffle(c, dimd.ShuffleOptions{Segments: 2, Seed: 99}); err != nil {
			return err
		}
		aug := imagecodec.Augment{Crop: 56, Mean: [3]float32{0.5, 0.5, 0.5}, Std: [3]float32{0.25, 0.25, 0.25}}
		x := tensor.New(8, 3, 56, 56)
		labels := make([]int, 8)
		rng := tensor.NewRNG(int64(c.Rank()) + 1)
		if err := store.SampleTensors(rng, aug, x, labels); err != nil {
			return err
		}
		fmt.Printf("learner %d: %d images before shuffle, %d after (%.1f MB); sampled batch labels %v\n",
			c.Rank(), before, store.Len(), float64(store.Bytes())/1e6, labels)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
