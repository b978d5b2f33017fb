package tensor

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source for weight initialization and data
// generation. All randomness in the repository flows through explicitly
// seeded RNGs so that distributed runs are reproducible rank-by-rank, which
// the correctness tests (serial-vs-distributed equivalence) rely on.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float32 returns a uniform float32 in [0,1).
func (g *RNG) Float32() float32 { return g.r.Float32() }

// Float64 returns a uniform float64 in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// PermInto fills dst with a random permutation of [0,len(dst)): the same
// permutation from the same draws as Perm(len(dst)), without the allocation.
func (g *RNG) PermInto(dst []int) {
	// math/rand's Perm loop, whose draw sequence Go 1 compatibility pins —
	// the i=0 iteration's draw included. dst[i] is read only at j <= i:
	// already written, or about to be overwritten.
	for i := range dst {
		j := g.r.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
}

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// FillUniform fills t with uniform values in [lo, hi).
func (g *RNG) FillUniform(t *Tensor, lo, hi float32) {
	span := hi - lo
	for i := range t.Data {
		t.Data[i] = lo + span*g.r.Float32()
	}
}

// FillNormal fills t with normal values of the given mean and stddev.
func (g *RNG) FillNormal(t *Tensor, mean, stddev float32) {
	for i := range t.Data {
		t.Data[i] = mean + stddev*float32(g.r.NormFloat64())
	}
}

// FillKaiming applies He/Kaiming-normal initialization for a layer with
// fanIn inputs: N(0, sqrt(2/fanIn)). This is the initialization used by the
// Torch ResNet package the paper trains with.
func (g *RNG) FillKaiming(t *Tensor, fanIn int) {
	if fanIn <= 0 {
		fanIn = 1
	}
	g.FillNormal(t, 0, float32(math.Sqrt(2/float64(fanIn))))
}
