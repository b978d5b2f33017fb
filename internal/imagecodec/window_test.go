package imagecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// The reference the window decoder is held to: the dense decoder and the
// augmenter as they stood before it (commit 959777d) — every block
// inverse-transformed in full by the plain two-pass float64 IDCT, three
// whole-frame planes, one Image, then Apply's loop over it. Kept verbatim
// here so that neither the restricted outputs nor the skipped zero rows of
// idct, nor the fused tail of DecodeApply, can move a bit unnoticed.

func refIDCT(b *[64]float64) {
	var tmp [64]float64
	for v := 0; v < 8; v++ {
		for x := 0; x < 8; x++ {
			var s float64
			for u := 0; u < 8; u++ {
				s += b[v*8+u] * dctCos[u][x]
			}
			tmp[v*8+x] = s
		}
	}
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			var s float64
			for v := 0; v < 8; v++ {
				s += tmp[v*8+x] * dctCos[v][y]
			}
			b[y*8+x] = s
		}
	}
}

func refReadRLE(data []byte, pos int, coef *[64]int32) (int, error) {
	for i := range coef {
		coef[i] = 0
	}
	i := 0
	for {
		if pos >= len(data) {
			return 0, errors.New("truncated block")
		}
		run := int(data[pos])
		pos++
		if run == 255 {
			return pos, nil
		}
		i += run
		v, n := readZigzagVarint(data[pos:])
		if n <= 0 {
			return 0, errors.New("bad varint")
		}
		pos += n
		if i > 63 {
			return 0, errors.New("coefficient index overflow")
		}
		if run == 254 && v == 0 {
			continue
		}
		coef[i] = int32(v)
		i++
		if i == 64 {
			if pos >= len(data) || data[pos] != 255 {
				return 0, errors.New("missing end marker")
			}
			return pos + 1, nil
		}
	}
}

// refDecode is the parent's Decode, given the header parseHeader accepted
// (so that a hostile header cannot make the reference itself over-allocate).
func refDecode(data []byte, w, h, quality int) (*Image, error) {
	luma, chroma := scaledTables(quality)
	im := NewImage(w, h)
	pos := 16
	bw := (w + 7) / 8
	bh := (h + 7) / 8
	var coef [64]int32
	var block [64]float64
	ycbcr := make([][]float64, 3)
	for ch := range ycbcr {
		ycbcr[ch] = make([]float64, w*h)
	}
	for ch := 0; ch < 3; ch++ {
		table := &luma
		if ch > 0 {
			table = &chroma
		}
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				var err error
				pos, err = refReadRLE(data, pos, &coef)
				if err != nil {
					return nil, err
				}
				for i := 0; i < 64; i++ {
					block[zigzag[i]] = float64(coef[i] * table[i])
				}
				refIDCT(&block)
				for y := 0; y < 8 && by*8+y < h; y++ {
					for x := 0; x < 8 && bx*8+x < w; x++ {
						ycbcr[ch][(by*8+y)*w+bx*8+x] = block[y*8+x]
					}
				}
			}
		}
	}
	for i := 0; i < w*h; i++ {
		y := ycbcr[0][i] + 128
		cb := ycbcr[1][i]
		cr := ycbcr[2][i]
		im.Pix[3*i+0] = clampU8(y + 1.402*cr)
		im.Pix[3*i+1] = clampU8(y - 0.344136*cb - 0.714136*cr)
		im.Pix[3*i+2] = clampU8(y + 1.772*cb)
	}
	return im, nil
}

// refCrop is the body of the parent's Augment.Apply after its three draws.
func refCrop(a Augment, im *Image, cx, cy int, flip bool, dst []float32) {
	plane := a.Crop * a.Crop
	for y := 0; y < a.Crop; y++ {
		for x := 0; x < a.Crop; x++ {
			sx := cx + x
			if flip {
				sx = cx + a.Crop - 1 - x
			}
			i := 3 * ((cy+y)*im.W + sx)
			for ch := 0; ch < 3; ch++ {
				v := float32(im.Pix[i+ch]) / 255
				dst[ch*plane+y*a.Crop+x] = (v - a.Mean[ch]) / a.Std[ch]
			}
		}
	}
}

// refApply is the parent's Augment.Apply.
func refApply(a Augment, im *Image, rng *tensor.RNG, dst []float32) error {
	if im.W < a.Crop || im.H < a.Crop {
		return errors.New("image smaller than crop")
	}
	if len(dst) != 3*a.Crop*a.Crop {
		return errors.New("bad dst")
	}
	cx := rng.Intn(im.W - a.Crop + 1)
	cy := rng.Intn(im.H - a.Crop + 1)
	flip := rng.Float32() < 0.5
	refCrop(a, im, cx, cy, flip, dst)
	return nil
}

// noisyImage is syntheticImage plus per-pixel noise, so that blocks keep
// high-frequency coefficients at high quality and lose whole coefficient
// rows at low quality: every sparsity the row skip can meet.
func noisyImage(w, h int, seed int64) *Image {
	im := syntheticImage(w, h, seed)
	rng := tensor.NewRNG(seed + 1000)
	for i := range im.Pix {
		im.Pix[i] = clampU8(float64(im.Pix[i]) + float64(rng.Intn(41)-20))
	}
	return im
}

func testAugment(crop int) Augment {
	a := DefaultAugment()
	a.Crop = crop
	return a
}

func sameFloat32Bits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// bitwiseFrames are the frames the equivalence tests sweep: block-aligned,
// and 37×53 whose last block column and row are clipped.
var bitwiseFrames = []struct{ w, h int }{{64, 64}, {37, 53}}

var bitwiseQualities = []int{10, 80, 100}

// TestDecodeMatchesDenseReference: the full-window call of the block loop —
// Decode — gives the dense decoder's pixels.
func TestDecodeMatchesDenseReference(t *testing.T) {
	for _, f := range bitwiseFrames {
		for _, q := range bitwiseQualities {
			blob := Encode(noisyImage(f.w, f.h, int64(q)), q)
			want, err := refDecode(blob, f.w, f.h, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got.W != want.W || got.H != want.H || string(got.Pix) != string(want.Pix) {
				t.Fatalf("%dx%d q%d: Decode differs from the dense reference", f.w, f.h, q)
			}
		}
	}
}

// TestDecodeApplyBitwiseExhaustive: for every crop origin and both flips the
// window decode with its fused tail writes the float32 bits that the dense
// Decode followed by Apply writes.
func TestDecodeApplyBitwiseExhaustive(t *testing.T) {
	var dec CropDecoder
	for _, f := range bitwiseFrames {
		for _, q := range bitwiseQualities {
			blob := Encode(noisyImage(f.w, f.h, int64(q)), q)
			im, err := refDecode(blob, f.w, f.h, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, crop := range []int{8, 16, 24} {
				a := testAugment(crop)
				got := make([]float32, 3*crop*crop)
				want := make([]float32, 3*crop*crop)
				for cy := 0; cy <= f.h-crop; cy++ {
					for cx := 0; cx <= f.w-crop; cx++ {
						for _, flip := range []bool{false, true} {
							refCrop(a, im, cx, cy, flip, want)
							if err := dec.crop(blob, f.w, f.h, q, a, cx, cy, flip, got); err != nil {
								t.Fatal(err)
							}
							if i := sameFloat32Bits(got, want); i >= 0 {
								t.Fatalf("%dx%d q%d crop %d at (%d,%d) flip %v: element %d is %v, want %v",
									f.w, f.h, q, crop, cx, cy, flip, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestDecodeApplyDrawsLikeApply: DecodeApply takes refApply's draws in
// refApply's order — same crop, same flip, and the RNG in the same state
// afterwards.
func TestDecodeApplyDrawsLikeApply(t *testing.T) {
	var dec CropDecoder
	for _, f := range bitwiseFrames {
		blob := Encode(noisyImage(f.w, f.h, 3), 80)
		im, err := refDecode(blob, f.w, f.h, 80)
		if err != nil {
			t.Fatal(err)
		}
		for _, crop := range []int{8, 16, 24, 37} {
			a := testAugment(crop)
			got := make([]float32, 3*crop*crop)
			want := make([]float32, 3*crop*crop)
			for seed := int64(0); seed < 200; seed++ {
				gotRNG, wantRNG := tensor.NewRNG(seed), tensor.NewRNG(seed)
				if err := refApply(a, im, wantRNG, want); err != nil {
					t.Fatal(err)
				}
				if err := dec.DecodeApply(blob, a, gotRNG, got); err != nil {
					t.Fatal(err)
				}
				if i := sameFloat32Bits(got, want); i >= 0 {
					t.Fatalf("%dx%d crop %d seed %d: element %d is %v, want %v", f.w, f.h, crop, seed, i, got[i], want[i])
				}
				if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
					t.Fatalf("%dx%d crop %d seed %d: RNG diverged after the call", f.w, f.h, crop, seed)
				}
			}
		}
	}
}

// TestDecodeApplyRejectsWhatApplyRejects: a frame smaller than the crop and
// a wrong-sized slab fail before any draw, as they do in refApply.
func TestDecodeApplyRejectsWhatApplyRejects(t *testing.T) {
	var dec CropDecoder
	blob := Encode(noisyImage(16, 12, 1), 80)
	rng := tensor.NewRNG(1)
	next := tensor.NewRNG(1).Int63()
	if err := dec.DecodeApply(blob, testAugment(16), rng, make([]float32, 3*16*16)); err == nil {
		t.Fatal("crop 16 of a 16x12 frame should fail")
	}
	if err := dec.DecodeApply(blob, testAugment(8), rng, make([]float32, 3*8*8+1)); err == nil {
		t.Fatal("a dst that is not one slab should fail")
	}
	if err := dec.DecodeApply(blob[:len(blob)-1], testAugment(8), rng, make([]float32, 3*8*8)); err == nil {
		t.Fatal("a blob truncated in its last block, outside the window, should fail")
	}
	rng = tensor.NewRNG(1)
	if err := dec.DecodeApply(blob[:10], testAugment(8), rng, make([]float32, 3*8*8)); err == nil {
		t.Fatal("a short header should fail")
	}
	if rng.Int63() != next {
		t.Fatal("a rejected header consumed randomness")
	}
}

// TestIDCTSparseAndWindowedBitExact proves the two arguments idct's comment
// makes, on blocks built to stress them: every subset of live coefficient
// rows (the mask then names exactly the nonzero rows, as decodeWindow's
// does), coefficients of both signs so that partial sums cancel to zero
// mid-row, and every output window — all compared bit for bit, the sign of
// a zero included, against the dense full-block transform.
func TestIDCTSparseAndWindowedBitExact(t *testing.T) {
	rng := tensor.NewRNG(11)
	windows := [][4]int{{0, 8, 0, 8}, {0, 1, 0, 1}, {7, 8, 7, 8}, {3, 8, 0, 5}, {0, 4, 2, 8}, {2, 6, 3, 4}}
	for mask := uint(0); mask < 256; mask++ {
		for rep := 0; rep < 8; rep++ {
			var b [64]float64
			for v := 0; v < 8; v++ {
				if mask&(1<<v) == 0 {
					continue
				}
				// At least one nonzero in a live row, the rest sparse;
				// rep 0 mirrors a value so that sums cancel exactly.
				b[v*8+rng.Intn(8)] = float64(int32(rng.Intn(4001)-2000) | 1)
				for u := 0; u < 8; u++ {
					if rng.Intn(3) == 0 {
						b[v*8+u] = float64(int32(rng.Intn(4001) - 2000))
					}
				}
				if rep == 0 {
					b[v*8+1], b[v*8+7] = 5, -5
				}
			}
			want := b
			refIDCT(&want)
			for _, w := range windows {
				x0, x1, y0, y1 := w[0], w[1], w[2], w[3]
				stride := x1 - x0 + 3
				got := make([]float64, (y1-y0)*stride)
				idct(&b, mask, x0, x1, y0, y1, got, stride)
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						g, r := got[(y-y0)*stride+x-x0], want[y*8+x]
						if math.Float64bits(g) != math.Float64bits(r) {
							t.Fatalf("rows %08b window %v sample (%d,%d): %v (%#x), dense %v (%#x)",
								mask, w, x, y, g, math.Float64bits(g), r, math.Float64bits(r))
						}
					}
				}
			}
		}
	}
}

// allocatedBytes reports the heap bytes the process allocates while fn runs:
// fn's, plus whatever the test or fuzz harness allocates beside it, which
// allocSlack absorbs — the bounds are after gigabytes, not kilobytes.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is what Decode may allocate for a blob of n bytes: 24 B of
// plane and 3 B of Pix per pixel, at most 64 pixels per 3 payload bytes (one
// end-marker byte per block per channel).
func decodeAllocBound(n int) uint64 { return uint64(27*64*n/3) + allocSlack }

const allocSlack = 1 << 16

// TestDecodeHostileHeader: a 16-byte header declaring 65536×65536 made the
// decoder allocate 3·2³²·8 bytes of planes before reading a block.
func TestDecodeHostileHeader(t *testing.T) {
	blob := make([]byte, 64)
	binary.LittleEndian.PutUint32(blob[0:], magic)
	binary.LittleEndian.PutUint32(blob[4:], 1<<16)
	binary.LittleEndian.PutUint32(blob[8:], 1<<16)
	binary.LittleEndian.PutUint32(blob[12:], 80)
	for i := 16; i < len(blob); i++ {
		blob[i] = 255
	}
	var err error
	got := allocatedBytes(func() { _, err = Decode(blob) })
	if err == nil {
		t.Fatal("a 65536x65536 header over a 48-byte payload should fail")
	}
	if got > decodeAllocBound(len(blob)) {
		t.Fatalf("Decode allocated %d bytes for a %d-byte blob", got, len(blob))
	}
	var dec CropDecoder
	if err := dec.DecodeApply(blob, testAugment(16), tensor.NewRNG(1), make([]float32, 3*16*16)); err == nil {
		t.Fatal("DecodeApply should reject the same header")
	}
	// The smallest payload a header can be honest about: all-grey blocks.
	binary.LittleEndian.PutUint32(blob[4:], 32)
	binary.LittleEndian.PutUint32(blob[8:], 32)
	if _, err := Decode(blob); err != nil {
		t.Fatalf("32x32 over 48 end markers is a valid grey frame: %v", err)
	}
}

// fuzzSeeds builds FuzzDecode's seed blobs — valid at three qualities, and
// the malformed shapes parseHeader and readRLE name. testdata/fuzz/FuzzDecode
// holds the same blobs as the committed corpus.
func fuzzSeeds() map[string][]byte {
	seeds := map[string][]byte{}
	for _, q := range bitwiseQualities {
		seeds[fmt.Sprintf("valid_q%d", q)] = Encode(noisyImage(24, 20, int64(q)), q)
	}
	valid := seeds["valid_q80"]
	seeds["truncated"] = valid[:len(valid)*2/3]
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	seeds["bad_magic"] = badMagic
	grey := func(payload ...byte) []byte {
		b := make([]byte, 16, 16+len(payload))
		binary.LittleEndian.PutUint32(b[0:], magic)
		binary.LittleEndian.PutUint32(b[4:], 8)
		binary.LittleEndian.PutUint32(b[8:], 8)
		binary.LittleEndian.PutUint32(b[12:], 80)
		return append(b, payload...)
	}
	// A run of 200 then a run of 100: coefficient index 301.
	seeds["run_overflow"] = grey(200, 2, 100, 2, 255, 255, 255)
	// 64 coefficients (run 0, level 1) with no 255 after the last.
	full := make([]byte, 0, 130)
	for i := 0; i < 64; i++ {
		full = append(full, 0, 2)
	}
	seeds["missing_end_marker"] = grey(append(full, 0, 255, 255)...)
	seeds["hostile_dims"] = func() []byte {
		b := grey(255, 255, 255)
		binary.LittleEndian.PutUint32(b[4:], 1<<16)
		binary.LittleEndian.PutUint32(b[8:], 1<<16)
		return b
	}()
	return seeds
}

// FuzzDecode holds the decoder to three things over arbitrary bytes: it never
// panics; it never allocates past decodeAllocBound; and it is differential —
// Decode errors iff the dense reference errors and otherwise gives its
// pixels, and for a crop and a seed derived from the input DecodeApply
// errors iff Decode does and otherwise writes Decode→Apply's bits.
func FuzzDecode(f *testing.F) {
	for _, blob := range fuzzSeeds() {
		f.Add(blob, int64(1), uint8(15))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64, cropSel uint8) {
		var im *Image
		var err error
		if got := allocatedBytes(func() { im, err = Decode(data) }); got > decodeAllocBound(len(data)) {
			t.Fatalf("Decode allocated %d bytes for a %d-byte blob", got, len(data))
		}
		w, h, quality, hdrErr := parseHeader(data)
		if hdrErr != nil {
			if err == nil {
				t.Fatal("Decode accepted a header parseHeader rejects")
			}
			var dec CropDecoder
			if dec.DecodeApply(data, testAugment(1), tensor.NewRNG(seed), make([]float32, 3)) == nil {
				t.Fatal("DecodeApply accepted a header parseHeader rejects")
			}
			return
		}
		ref, refErr := refDecode(data, w, h, quality)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode error %v, dense reference error %v", err, refErr)
		}
		a := testAugment(1 + int(cropSel)%min(w, h, 32))
		got := make([]float32, 3*a.Crop*a.Crop)
		var dec CropDecoder
		gotRNG := tensor.NewRNG(seed)
		cropErr := dec.DecodeApply(data, a, gotRNG, got)
		if (cropErr == nil) != (err == nil) {
			t.Fatalf("DecodeApply error %v, Decode error %v", cropErr, err)
		}
		if err != nil {
			return
		}
		if im.W != ref.W || im.H != ref.H || string(im.Pix) != string(ref.Pix) {
			t.Fatal("Decode differs from the dense reference")
		}
		want := make([]float32, len(got))
		wantRNG := tensor.NewRNG(seed)
		if err := refApply(a, ref, wantRNG, want); err != nil {
			t.Fatal(err)
		}
		if i := sameFloat32Bits(got, want); i >= 0 {
			t.Fatalf("crop %d seed %d: element %d is %v, want %v", a.Crop, seed, i, got[i], want[i])
		}
		if gotRNG.Int63() != wantRNG.Int63() {
			t.Fatal("RNG diverged after DecodeApply")
		}
	})
}

// benchBlob is the benchmark corpus's shape: 64×64 at quality 80.
func benchBlob() []byte { return Encode(noisyImage(64, 64, 7), 80) }

func BenchmarkDecodeFull(b *testing.B) {
	blob := benchBlob()
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(3*8*8, "blocks/op")
}

// BenchmarkDecodeWindow16 is the per-image work of the training input path:
// a random 16×16 crop of a 64×64 frame, decoded into a tensor slab.
func BenchmarkDecodeWindow16(b *testing.B) {
	blob := benchBlob()
	a := testAugment(16)
	dst := make([]float32, 3*16*16)
	rng := tensor.NewRNG(1)
	var dec CropDecoder
	blocks := 0
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.DecodeApply(blob, a, rng, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Blocks under the crops the timed loop drew: the same seed replayed.
	rng = tensor.NewRNG(1)
	for i := 0; i < b.N; i++ {
		cx, cy, _ := a.draw(64, 64, rng)
		blocks += 3 * ((cx+15)/8 - cx/8 + 1) * ((cy+15)/8 - cy/8 + 1)
	}
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
}
