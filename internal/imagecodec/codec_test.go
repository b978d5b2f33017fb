package imagecodec

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// syntheticImage builds a smooth natural-ish test image (gradients plus a
// few blobs) that compresses like a photo rather than like noise.
func syntheticImage(w, h int, seed int64) *Image {
	rng := tensor.NewRNG(seed)
	im := NewImage(w, h)
	cx1, cy1 := float64(rng.Intn(w)), float64(rng.Intn(h))
	cx2, cy2 := float64(rng.Intn(w)), float64(rng.Intn(h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d1 := math.Hypot(float64(x)-cx1, float64(y)-cy1)
			d2 := math.Hypot(float64(x)-cx2, float64(y)-cy2)
			r := 128 + 100*math.Sin(d1/15)
			g := float64(x) / float64(w) * 255
			b := 255 * math.Exp(-d2/40)
			im.Set(x, y, clampU8(r), clampU8(g), clampU8(b))
		}
	}
	return im
}

func psnr(a, b *Image) float64 {
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func TestCodecRoundTripQuality(t *testing.T) {
	im := syntheticImage(64, 48, 1)
	for _, q := range []int{50, 75, 90} {
		blob := Encode(im, q)
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if got.W != im.W || got.H != im.H {
			t.Fatalf("q=%d: size %dx%d, want %dx%d", q, got.W, got.H, im.W, im.H)
		}
		p := psnr(im, got)
		if p < 28 {
			t.Fatalf("q=%d: PSNR %.1f dB too low", q, p)
		}
	}
}

func TestCodecHigherQualityHigherFidelity(t *testing.T) {
	im := syntheticImage(64, 64, 2)
	low, _ := Decode(Encode(im, 20))
	high, _ := Decode(Encode(im, 95))
	if psnr(im, high) <= psnr(im, low) {
		t.Fatal("higher quality should give higher PSNR")
	}
	if len(Encode(im, 95)) <= len(Encode(im, 20)) {
		t.Fatal("higher quality should give larger blobs")
	}
}

func TestCodecCompresses(t *testing.T) {
	im := syntheticImage(128, 128, 3)
	blob := Encode(im, 75)
	raw := len(im.Pix)
	if len(blob) >= raw/2 {
		t.Fatalf("compression ratio too poor: %d -> %d bytes", raw, len(blob))
	}
}

func TestCodecNonMultipleOf8(t *testing.T) {
	// Edge-block replication: sizes not divisible by 8.
	for _, sz := range [][2]int{{13, 9}, {17, 8}, {8, 23}, {1, 1}} {
		im := syntheticImage(sz[0], sz[1], 4)
		got, err := Decode(Encode(im, 80))
		if err != nil {
			t.Fatalf("%v: %v", sz, err)
		}
		if got.W != sz[0] || got.H != sz[1] {
			t.Fatalf("%v: got %dx%d", sz, got.W, got.H)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil blob should error")
	}
	if _, err := Decode(make([]byte, 20)); err == nil {
		t.Fatal("bad magic should error")
	}
	im := syntheticImage(16, 16, 5)
	blob := Encode(im, 75)
	if _, err := Decode(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob should error")
	}
}

func TestZigzagVarintRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		b := appendZigzagVarint(nil, v)
		got, n := readZigzagVarint(b)
		return n == len(b) && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRLEBlockRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		var coef [64]int32
		// Sparse blocks like real DCT output.
		for i := 0; i < 64; i++ {
			if rng.Float32() < 0.2 {
				coef[i] = int32(rng.Intn(2001) - 1000)
			}
		}
		blob := appendRLE(nil, &coef)
		var ones [64]int32
		for i := range ones {
			ones[i] = 1
		}
		var block [64]float64
		pos, _, err := readRLE(blob, 0, &ones, &block)
		if err != nil || pos != len(blob) {
			return false
		}
		if skipped, _, err := readRLE(blob, 0, nil, nil); err != nil || skipped != pos {
			return false
		}
		var got [64]int32
		for i := range got {
			got[i] = int32(block[zigzag[i]])
		}
		return got == coef
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode→Decode preserves dimensions and bounded distortion for
// arbitrary (small) image sizes and qualities — no size/quality combination
// crashes the block walker or the entropy coder.
func TestPropCodecArbitrarySizes(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		w := 1 + rng.Intn(40)
		h := 1 + rng.Intn(40)
		q := 1 + rng.Intn(100)
		im := NewImage(w, h)
		// Smooth-ish content: random gradient mixture.
		a, b := rng.Float64()*4, rng.Float64()*4
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				im.Set(x, y,
					clampU8(128+100*mathSin(a*float64(x)/float64(w))),
					clampU8(float64(x+y)*255/float64(w+h)),
					clampU8(128+100*mathSin(b*float64(y)/float64(h))))
			}
		}
		got, err := Decode(Encode(im, q))
		if err != nil || got.W != w || got.H != h {
			return false
		}
		// Distortion bound: even at quality 1 every pixel stays in range and
		// mean absolute error stays below a loose cap.
		var mae float64
		for i := range im.Pix {
			d := float64(im.Pix[i]) - float64(got.Pix[i])
			if d < 0 {
				d = -d
			}
			mae += d
		}
		mae /= float64(len(im.Pix))
		return mae < 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func mathSin(v float64) float64 { return math.Sin(v * 2 * math.Pi) }

func TestDCTRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(6)
	var b, orig [64]float64
	for i := range b {
		b[i] = float64(rng.Intn(256) - 128)
		orig[i] = b[i]
	}
	fdct(&b)
	var back [64]float64
	idct(&b, 0xff, 0, 8, 0, 8, back[:], 8)
	for i := range back {
		if math.Abs(back[i]-orig[i]) > 1e-9 {
			t.Fatalf("DCT round trip error at %d: %v vs %v", i, back[i], orig[i])
		}
	}
}

func TestDefaultAugment(t *testing.T) {
	a := DefaultAugment()
	if a.Crop != 224 {
		t.Fatalf("default crop %d, want 224", a.Crop)
	}
}

func TestImageAccessors(t *testing.T) {
	im := NewImage(3, 2)
	im.Set(2, 1, 1, 2, 3)
	r, g, b := im.At(2, 1)
	if r != 1 || g != 2 || b != 3 {
		t.Fatal("At/Set mismatch")
	}
	c := im.Clone()
	c.Set(0, 0, 9, 9, 9)
	if r, _, _ := im.At(0, 0); r == 9 {
		t.Fatal("Clone aliases")
	}
}
