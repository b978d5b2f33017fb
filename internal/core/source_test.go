package core

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dimd"
	"repro/internal/imagecodec"
	"repro/internal/tensor"
)

const (
	streamImages = 40
	streamBatch  = 8
	streamCrop   = 16
)

var streamAug = imagecodec.Augment{Crop: streamCrop, Mean: imagecodec.DefaultAugment().Mean, Std: imagecodec.DefaultAugment().Std}

// streamCorpus yields the encoded images both golden-stream sources serve:
// 36×28 frames, so the right and bottom block columns are clipped.
func streamCorpus(t *testing.T) func(i int) (int, []byte) {
	t.Helper()
	corpus, err := dataset.New(dataset.Spec{Classes: 5, Train: streamImages, Size: 36, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return func(i int) (int, []byte) {
		// The top 28 rows of the 36×36 frame.
		im := &imagecodec.Image{W: 36, H: 28, Pix: corpus.Image(i).Pix[:3*36*28]}
		return corpus.Label(i), imagecodec.Encode(im, 60+i)
	}
}

// streamHash folds the first 8 batches of src — every pixel's float32 bits
// and every label — into one FNV-1a value.
func streamHash(t *testing.T, src BatchSource) uint64 {
	t.Helper()
	h := fnv.New64a()
	x := tensor.New(streamBatch, 3, streamCrop, streamCrop)
	labels := make([]int, streamBatch)
	var word [4]byte
	put := func(v uint32) {
		word[0], word[1], word[2], word[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(word[:])
	}
	for b := 0; b < 8; b++ {
		if err := src.NextBatch(x, labels); err != nil {
			t.Fatal(err)
		}
		for _, v := range x.Data {
			put(math.Float32bits(v))
		}
		for _, l := range labels {
			put(uint32(l))
		}
	}
	return h.Sum64()
}

// TestGoldenBatchStream pins the sample sequence, crops, flips and pixels of
// both record-backed sources to the values recorded from the tree before the
// window decoder (commit 959777d): the input path may get faster, the stream
// it produces may not move.
func TestGoldenBatchStream(t *testing.T) {
	get := streamCorpus(t)
	store, err := dimd.LoadPartition(dimd.Build(streamImages, get), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const wantDIMD = 0x906132c250c32d74
	if got := streamHash(t, &DIMDSource{Store: store, Aug: streamAug, RNG: tensor.NewRNG(5)}); got != wantDIMD {
		t.Errorf("DIMDSource stream hash %#x, want %#x", got, uint64(wantDIMD))
	}
	// A batch larger than the store takes RandomBatch's with-replacement arm.
	small := dimd.NewStore([]dimd.Record{store.Record(0), store.Record(1), store.Record(2)})
	const wantSmall = 0xf85ac45bdececdaf
	if got := streamHash(t, &DIMDSource{Store: small, Aug: streamAug, RNG: tensor.NewRNG(6)}); got != wantSmall {
		t.Errorf("with-replacement DIMDSource stream hash %#x, want %#x", got, uint64(wantSmall))
	}
	fs, err := dimd.WriteFileStore(t.TempDir(), streamImages, get)
	if err != nil {
		t.Fatal(err)
	}
	const wantFile = 0x3eb5abd318091de4
	if got := streamHash(t, &FileSource{Store: fs, Aug: streamAug, RNG: tensor.NewRNG(7)}); got != wantFile {
		t.Errorf("FileSource stream hash %#x, want %#x", got, uint64(wantFile))
	}
}

// TestDIMDSourceNextBatchAllocatesNothing: after one warm call the in-memory
// input path — sampling, decode, augment — runs out of store-owned scratch.
func TestDIMDSourceNextBatchAllocatesNothing(t *testing.T) {
	store, err := dimd.LoadPartition(dimd.Build(streamImages, streamCorpus(t)), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := &DIMDSource{Store: store, Aug: streamAug, RNG: tensor.NewRNG(5)}
	x := tensor.New(streamBatch, 3, streamCrop, streamCrop)
	labels := make([]int, streamBatch)
	if err := src.NextBatch(x, labels); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := src.NextBatch(x, labels); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DIMDSource.NextBatch allocates %v objects per call after warm-up, want 0", allocs)
	}
}
