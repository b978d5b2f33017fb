// Package dataset generates the synthetic labelled image corpus that stands
// in for ImageNet-1k/22k (which are not available in this environment, per
// DESIGN.md's substitution table). Images are procedurally generated from
// per-class prototypes plus instance noise, so (a) they compress like
// natural images, (b) a CNN can genuinely learn to classify them, and
// (c) generation is deterministic given (classID, instanceID) — every
// learner can agree on the corpus without sharing bytes.
package dataset

import (
	"fmt"
	"math"

	"repro/internal/imagecodec"
	"repro/internal/tensor"
)

// Spec describes a synthetic corpus.
type Spec struct {
	// Classes is the number of labels.
	Classes int
	// Train is the number of images.
	Train int
	// Size is the generated square image side (before any resize).
	Size int
	// Seed namespaces the whole corpus.
	Seed int64
}

// Corpus generates images and labels on demand.
type Corpus struct {
	spec Spec
}

// New creates a corpus for the spec.
func New(spec Spec) (*Corpus, error) {
	if spec.Classes <= 0 || spec.Train <= 0 || spec.Size < 8 {
		return nil, fmt.Errorf("dataset: invalid spec %+v", spec)
	}
	return &Corpus{spec: spec}, nil
}

// Spec returns the corpus description.
func (c *Corpus) Spec() Spec { return c.spec }

// Label returns the class of train image i (deterministic round-robin with a
// per-corpus offset, so classes are balanced).
func (c *Corpus) Label(i int) int {
	return int((int64(i) + c.spec.Seed) % int64(c.spec.Classes))
}

// Image materializes train image i.
func (c *Corpus) Image(i int) *imagecodec.Image {
	return c.render(c.Label(i), int64(i))
}

// render draws a class-prototype pattern perturbed by instance noise. The
// class determines stripe frequency/orientation and a blob layout; the
// instance shifts phases and adds pixel noise, so intra-class variation is
// real but bounded.
func (c *Corpus) render(class int, instance int64) *imagecodec.Image {
	s := c.spec.Size
	im := imagecodec.NewImage(s, s)
	// The trailing 1 namespaces the train split's instance stream; the
	// golden batch-stream hashes pin the pixels it yields.
	rng := tensor.NewRNG(c.spec.Seed*1_000_003 + int64(class)*7919 + instance*13 + 1)
	classRng := tensor.NewRNG(c.spec.Seed*999_983 + int64(class))

	freq := 2 + classRng.Float64()*6
	angle := classRng.Float64() * math.Pi
	cosA, sinA := math.Cos(angle), math.Sin(angle)
	bx := classRng.Float64()
	by := classRng.Float64()
	baseR := 60 + classRng.Float64()*140
	baseG := 60 + classRng.Float64()*140
	baseB := 60 + classRng.Float64()*140

	phase := rng.Float64() * 2 * math.Pi
	jx := (rng.Float64() - 0.5) * 0.2
	jy := (rng.Float64() - 0.5) * 0.2
	noiseAmp := 8.0

	for y := 0; y < s; y++ {
		fy := float64(y) / float64(s)
		for x := 0; x < s; x++ {
			fx := float64(x) / float64(s)
			t := (fx*cosA + fy*sinA) * freq * 2 * math.Pi
			stripe := math.Sin(t + phase)
			d := math.Hypot(fx-bx-jx, fy-by-jy)
			blob := math.Exp(-d * d * 18)
			n := (rng.Float64() - 0.5) * 2 * noiseAmp
			r := baseR + 50*stripe + 90*blob + n
			g := baseG + 50*stripe*0.6 + 70*blob + n
			b := baseB - 40*stripe + 60*blob + n
			im.Set(x, y, clamp(r), clamp(g), clamp(b))
		}
	}
	return im
}

// EncodedImage returns train image i compressed at the given quality — the
// form DIMD packs into its blob.
func (c *Corpus) EncodedImage(i, quality int) []byte {
	return imagecodec.Encode(c.Image(i), quality)
}

func clamp(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
