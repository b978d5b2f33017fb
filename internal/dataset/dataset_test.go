package dataset

import (
	"testing"

	"repro/internal/imagecodec"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Spec{Classes: 0, Train: 10, Size: 32}); err == nil {
		t.Fatal("zero classes should error")
	}
	if _, err := New(Spec{Classes: 2, Train: 0, Size: 32}); err == nil {
		t.Fatal("zero train should error")
	}
	if _, err := New(Spec{Classes: 2, Train: 10, Size: 4}); err == nil {
		t.Fatal("tiny size should error")
	}
}

func TestLabelsBalancedAndInRange(t *testing.T) {
	c, err := New(Spec{Classes: 5, Train: 100, Size: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 5)
	for i := 0; i < 100; i++ {
		l := c.Label(i)
		if l < 0 || l >= 5 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	for cl, n := range counts {
		if n != 20 {
			t.Fatalf("class %d has %d images, want 20", cl, n)
		}
	}
}

func TestImagesDeterministic(t *testing.T) {
	c, _ := New(Spec{Classes: 3, Train: 10, Size: 16, Seed: 4})
	a := c.Image(7)
	b := c.Image(7)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same index must render identical images")
		}
	}
	d := c.Image(8)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != d.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different instances rendered identically")
	}
}

func TestSameClassSimilarDifferentClassDistinct(t *testing.T) {
	c, _ := New(Spec{Classes: 4, Train: 100, Size: 32, Seed: 5})
	// Images 0 and 4 share class 0 (round robin over 4 classes w/ seed shift);
	// verify intra-class distance < inter-class distance on average.
	sameA, sameB := c.Image(0), c.Image(4)
	diff := c.Image(1) // different class
	var dSame, dDiff float64
	for i := range sameA.Pix {
		ds := float64(sameA.Pix[i]) - float64(sameB.Pix[i])
		dd := float64(sameA.Pix[i]) - float64(diff.Pix[i])
		dSame += ds * ds
		dDiff += dd * dd
	}
	if dSame >= dDiff {
		t.Fatalf("intra-class distance %v >= inter-class %v", dSame, dDiff)
	}
}

func TestEncodedImageDecodes(t *testing.T) {
	c, _ := New(Spec{Classes: 2, Train: 4, Size: 24, Seed: 6})
	blob := c.EncodedImage(1, 80)
	im, err := imagecodec.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 24 || im.H != 24 {
		t.Fatalf("decoded size %dx%d", im.W, im.H)
	}
	if len(blob) >= 3*24*24 {
		t.Fatalf("encoded image did not compress: %d bytes", len(blob))
	}
}
