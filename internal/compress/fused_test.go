package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fillBucket generates a random bucket. Mode selects the special payload
// paths: 0 normal values, 1 all zeros, 2 contains NaN, 3 contains ±Inf,
// 4 mixed tiny/huge magnitudes.
func fillBucket(rng *rand.Rand, n, mode int) []float32 {
	src := make([]float32, n)
	switch mode {
	case 1:
		// leave zeros
	case 2:
		for i := range src {
			src[i] = rng.Float32()*2 - 1
		}
		if n > 0 {
			src[rng.Intn(n)] = float32(math.NaN())
		}
	case 3:
		for i := range src {
			src[i] = rng.Float32()*2 - 1
		}
		if n > 0 {
			src[rng.Intn(n)] = float32(math.Inf(1 - 2*rng.Intn(2)))
		}
	case 4:
		for i := range src {
			src[i] = (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(20)-10)))
		}
	default:
		for i := range src {
			src[i] = rng.Float32()*2 - 1
		}
	}
	return src
}

// TestDecompressAddMatchesDecompressThenAdd: for every codec and payload
// path, DecompressAdd must accumulate exactly what Decompress-into-scratch
// followed by an elementwise add would — bitwise, including NaN/Inf
// propagation. dst plays the bucket-sum accumulator: partial sums of earlier
// payloads, which never contain -0 (the one case the sparse skip could
// distinguish, documented on the interface).
func TestDecompressAddMatchesDecompressThenAdd(t *testing.T) {
	codecs := []Codec{Identity{}, Int8{}, TopK{Ratio: 0.1}, TopK{Ratio: 1}, BFloat16{}}
	rng := rand.New(rand.NewSource(11))
	for _, codec := range codecs {
		for _, n := range []int{1, 7, 8, 9, 64, 1000} {
			for mode := 0; mode <= 4; mode++ {
				src := fillBucket(rng, n, mode)
				payload := Encode(codec, src)

				// Accumulator state: a partial sum of prior decoded payloads.
				prior := fillBucket(rng, n, 0)
				base := make([]float32, n)
				if err := codec.Decompress(base, Encode(codec, prior)); err != nil {
					t.Fatalf("%s n=%d mode=%d: prior decode: %v", codec.Name(), n, mode, err)
				}

				want := append([]float32(nil), base...)
				tmp := make([]float32, n)
				if err := codec.Decompress(tmp, payload); err != nil {
					t.Fatalf("%s n=%d mode=%d: Decompress: %v", codec.Name(), n, mode, err)
				}
				for i, v := range tmp {
					want[i] += v
				}

				got := append([]float32(nil), base...)
				if err := codec.DecompressAdd(got, payload); err != nil {
					t.Fatalf("%s n=%d mode=%d: DecompressAdd: %v", codec.Name(), n, mode, err)
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s n=%d mode=%d: elem %d = %v (bits %08x), want %v (bits %08x)",
							codec.Name(), n, mode, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestDecompressAddLengthErrors: the fused path validates payloads exactly
// like Decompress.
func TestDecompressAddLengthErrors(t *testing.T) {
	for _, codec := range []Codec{Identity{}, Int8{}, TopK{Ratio: 0.5}, BFloat16{}} {
		dst := make([]float32, 16)
		if err := codec.DecompressAdd(dst, []byte{1, 2, 3}); err == nil {
			t.Fatalf("%s: short payload accepted", codec.Name())
		}
	}
}

// int8CompressReference is the pre-vectorization scalar encoder, retained
// verbatim as the semantic spec for the unrolled implementation.
func int8CompressReference(dst []byte, src []float32) []byte {
	var maxAbs float32
	for _, v := range src {
		a := float32(math.Abs(float64(v)))
		if a > maxAbs || math.IsNaN(float64(a)) {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	off := len(dst)
	dst = grow(dst, 4+len(src))
	b := dst[off:]
	binary.LittleEndian.PutUint32(b, math.Float32bits(scale))
	if scale == 0 || math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) {
		for i := range src {
			b[4+i] = 0
		}
		return dst
	}
	for i, v := range src {
		q := math.RoundToEven(float64(v / scale))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		b[4+i] = byte(int8(q))
	}
	return dst
}

// TestInt8VectorizedMatchesReference: the unrolled bits-mask/magic-round
// encoder must emit byte-identical payloads to the scalar reference on every
// input class, including the values that stress round-to-even ties and the
// clamp boundary.
func TestInt8VectorizedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	codec := Int8{}
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 4096} {
		for mode := 0; mode <= 4; mode++ {
			src := fillBucket(rng, n, mode)
			got := codec.AppendCompress(nil, src)
			want := int8CompressReference(nil, src)
			if len(got) != len(want) {
				t.Fatalf("n=%d mode=%d: payload %d bytes, want %d", n, mode, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d mode=%d: byte %d = %#x, want %#x", n, mode, i, got[i], want[i])
				}
			}
		}
	}
	// Tie and clamp stress: exact half-integer quotients and the ±127 edge.
	src := []float32{127, -127, 126.5, -126.5, 0.5, -0.5, 1.5, -1.5, 126.9999, -126.9999, 0, -0}
	got := codec.AppendCompress(nil, src)
	want := int8CompressReference(nil, src)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tie/clamp: byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestTopKQuickselectMatchesSort: quickselect must keep the identical set —
// and therefore emit identical payload bytes — as the full magnitude sort it
// replaced.
func TestTopKQuickselectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, ratio := range []float64{0.01, 0.1, 0.5, 1} {
		codec := TopK{Ratio: ratio}
		for _, n := range []int{1, 2, 16, 100, 1000} {
			for trial := 0; trial < 20; trial++ {
				src := make([]float32, n)
				for i := range src {
					src[i] = rng.Float32()*2 - 1
				}
				if trial%3 == 0 && n >= 4 {
					// Duplicate magnitudes stress the index tiebreak.
					src[1] = src[0]
					src[3] = -src[2]
				}
				got := codec.AppendCompress(nil, src)

				// Reference: full sort with the same total order.
				k := codec.keep(n)
				s := &magSorter{idx: make([]int, n), src: src}
				for i := range s.idx {
					s.idx[i] = i
				}
				sort.Sort(s)
				kept := s.idx[:k]
				sort.Ints(kept)
				want := make([]byte, 4+8*k)
				binary.LittleEndian.PutUint32(want, uint32(k))
				for i, j := range kept {
					binary.LittleEndian.PutUint32(want[4+4*i:], uint32(j))
					binary.LittleEndian.PutUint32(want[4+4*k+4*i:], math.Float32bits(src[j]))
				}

				if len(got) != len(want) {
					t.Fatalf("ratio=%v n=%d: payload %d bytes, want %d", ratio, n, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("ratio=%v n=%d trial=%d: byte %d differs", ratio, n, trial, i)
					}
				}
			}
		}
	}
}

// topkHostile are top-k payloads no encoder writes, for a 4-float bucket. A
// repeated index decodes to the last value through Decompress but to the sum
// through DecompressAdd. Where int is 32 bits, index 0xFFFFFFFF converts to
// -1, and count 0xE0000000 wraps the expected length 4+8k to 4 bytes.
// FuzzCodecDecode's committed corpus holds all but the descending one, and
// its seeds hold all four.
var topkHostile = map[string]string{
	"duplicate index":  "\x02\x00\x00\x00" + "\x01\x00\x00\x00\x01\x00\x00\x00" + "\x00\x00\x00\x40\x00\x00\x40\x40",
	"index past int32": "\x01\x00\x00\x00" + "\xff\xff\xff\xff" + "\x00\x00\x80\x3f",
	"wrapped count":    "\x00\x00\x00\xe0",
	"descending index": "\x02\x00\x00\x00" + "\x02\x00\x00\x00\x01\x00\x00\x00" + "\x00\x00\x00\x40\x00\x00\x40\x40",
}

// TestTopKRejectsHostilePayloads: both decoders refuse every payload in
// topkHostile and leave dst as it was.
func TestTopKRejectsHostilePayloads(t *testing.T) {
	for name, payload := range topkHostile {
		for i, decode := range []func([]float32, []byte) error{TopK{}.Decompress, TopK{}.DecompressAdd} {
			dst := []float32{1, 2, 3, 4}
			if err := decode(dst, []byte(payload)); err == nil {
				t.Errorf("%s: decoder %d accepted it, dst %v", name, i, dst)
			} else if !slices.Equal(dst, []float32{1, 2, 3, 4}) {
				t.Errorf("%s: decoder %d refused it but wrote dst: %v", name, i, dst)
			}
		}
	}
}

// decodeCodecs is every name Config accepts; FuzzCodecDecode's first
// argument picks one. topk stays first so the committed corpus keeps
// naming it.
var decodeCodecs = []string{"topk", "", "none", "int8", "bf16"}

// FuzzCodecDecode: no payload panics a decoder. Decompress and DecompressAdd
// fail or succeed together, and a failure leaves dst as it was. On success,
// DecompressAdd onto a dst with no zero in it (so no -0 for the sparse skip
// to tell apart) equals Decompress followed by an add, bit for bit.
func FuzzCodecDecode(f *testing.F) {
	src := []float32{0.5, -2, 0, 7, -0.25}
	for i, name := range decodeCodecs {
		c, err := New(Config{Codec: name, TopKRatio: 0.4})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), uint8(len(src)), Encode(c, src))
	}
	names := make([]string, 0, len(topkHostile))
	for name := range topkHostile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(uint8(0), uint8(4), []byte(topkHostile[name]))
	}
	f.Fuzz(func(t *testing.T, codec, n uint8, payload []byte) {
		c, err := New(Config{Codec: decodeCodecs[int(codec)%len(decodeCodecs)]})
		if err != nil {
			t.Fatal(err)
		}
		base := make([]float32, n)
		for i := range base {
			base[i] = float32(i) + 0.5
		}
		decoded := append([]float32(nil), base...)
		sum := append([]float32(nil), base...)
		errD, errA := c.Decompress(decoded, payload), c.DecompressAdd(sum, payload)
		if (errD == nil) != (errA == nil) {
			t.Fatalf("%s: Decompress error %v, DecompressAdd error %v", c.Name(), errD, errA)
		}
		if errD != nil {
			if !slices.Equal(decoded, base) || !slices.Equal(sum, base) {
				t.Fatalf("%s: a refused payload wrote dst", c.Name())
			}
			return
		}
		for i, v := range decoded {
			if want := base[i] + v; math.Float32bits(sum[i]) != math.Float32bits(want) {
				t.Fatalf("%s: elem %d: DecompressAdd %v (bits %08x), Decompress then add %v (bits %08x)",
					c.Name(), i, sum[i], math.Float32bits(sum[i]), want, math.Float32bits(want))
			}
		}
	})
}
