package compress

import (
	"math"
	"math/rand"
	"testing"
)

// isSNaNBF16 reports whether h is a bf16 signaling NaN (exponent all-ones,
// nonzero mantissa, quiet bit — mantissa bit 6 — clear). Encoding forces the
// quiet bit, so signaling payloads do not round-trip bit-exactly — the one
// excluded class.
func isSNaNBF16(h uint16) bool {
	return h&0x7F80 == 0x7F80 && h&0x7F != 0 && h&0x40 == 0
}

// TestHalfExhaustiveRoundTrip walks the ENTIRE 16-bit space of bfloat16:
// decode must be exact (every bf16 value has an exact float32 widening) and
// re-encoding the decoded value must reproduce the original bits — normals,
// subnormals, ±0, ±Inf, and quiet NaNs alike. Signaling NaNs are the
// documented exception (encode quiets them).
func TestHalfExhaustiveRoundTrip(t *testing.T) {
	for h := 0; h <= 0xFFFF; h++ {
		bits := uint16(h)
		if !isSNaNBF16(bits) {
			if got := f32ToBF16(bf16ToF32(bits)); got != bits {
				t.Fatalf("bf16 %04x decodes to %v but re-encodes to %04x", bits, bf16ToF32(bits), got)
			}
		}
	}
}

// nearestBF16 is the brute-force round-to-nearest-even reference: scan every
// non-negative bf16 candidate (with +Inf standing at 2^128, the next value
// the format would represent — the IEEE overflow-threshold convention), pick
// the closest in exact float64 arithmetic, break ties toward the even
// encoding.
func nearestBF16(v float32) uint16 {
	sign := uint16(0)
	av := float64(v)
	if math.Signbit(av) {
		sign = 0x8000
		av = -av
	}
	best, bestDist := uint16(0), math.Inf(1)
	for h := 0; h <= 0x7F80; h++ {
		var val float64
		if h == 0x7F80 {
			val = math.Ldexp(1, 128)
		} else {
			val = float64(bf16ToF32(uint16(h)))
		}
		d := math.Abs(val - av)
		if d < bestDist || (d == bestDist && h&1 == 0) {
			best, bestDist = uint16(h), d
		}
	}
	return sign | best
}

// TestBF16EncodeMatchesNearestEven pins the encoder against the brute-force
// reference on the values that stress its boundaries — which for bfloat16
// live at the top of the f32 range — and random values across the binades.
func TestBF16EncodeMatchesNearestEven(t *testing.T) {
	edges := []float32{
		0, float32(math.Copysign(0, -1)),
		math.MaxFloat32, // rounds to Inf (above bf16 max finite)
		3.3895314e38,    // bf16 max finite
		3.3961775e38,    // tie between max finite (odd) and Inf (even): Inf
		-math.MaxFloat32, 1e-38, 1e-44, 1e-45,
		1, 1.00390625, 1.001953125, // mantissa ties at 1+2^-8
		0.33333334, 3.1415927,
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		edges = append(edges, (rng.Float32()*2-1)*float32(math.Pow(2, float64(rng.Intn(80)-40))))
	}
	for _, v := range edges {
		if got, want := f32ToBF16(v), nearestBF16(v); got != want {
			t.Fatalf("f32ToBF16(%v) = %04x (%v), want %04x (%v)", v, got, bf16ToF32(got), want, bf16ToF32(want))
		}
	}
}

// TestHalfNaNStaysNaN: non-finite gradients must surface as divergence
// through the 16-bit wire format, exactly like the int8 scale poisoning —
// NaN in, NaN out; Inf in, Inf out with the sign preserved.
func TestHalfNaNStaysNaN(t *testing.T) {
	c := BFloat16{}
	src := []float32{1, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	dst := make([]float32, len(src))
	if err := c.Decompress(dst, Encode(c, src)); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(dst[1])) {
		t.Fatalf("NaN decoded to %v", dst[1])
	}
	if !math.IsInf(float64(dst[2]), 1) || !math.IsInf(float64(dst[3]), -1) {
		t.Fatalf("Inf decoded to %v, %v", dst[2], dst[3])
	}
}

// TestHalfRoundTripError bounds the relative error: bf16 keeps 8 significand
// bits (relative half-ulp 2^-8).
func TestHalfRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 2000; i++ {
		v := (1 + rng.Float32()) * float32(math.Pow(2, float64(rng.Intn(28)-14)))
		if rng.Intn(2) == 0 {
			v = -v
		}
		bf := bf16ToF32(f32ToBF16(v))
		if rel := math.Abs(float64(bf-v)) / math.Abs(float64(v)); rel > 1.0/256+1e-9 {
			t.Fatalf("bf16 round trip of %v = %v, rel err %v", v, bf, rel)
		}
	}
}

// TestHalfPayloadHalvesBytes: the point of the format — exactly 2 bytes per
// element on the wire, half of f32.
func TestHalfPayloadHalvesBytes(t *testing.T) {
	src := randVec(4096, 3)
	if got := len(Encode(BFloat16{}, src)); got != 2*len(src) {
		t.Fatalf("bf16: payload %d bytes, want %d", got, 2*len(src))
	}
}
