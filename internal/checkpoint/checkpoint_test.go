package checkpoint

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sgd"
	"repro/internal/tensor"
)

func trainedModel(t *testing.T, seed int64) (*nn.Sequential, *sgd.SGD) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net := models.NewSmallCNN(3, 8, rng)
	opt := sgd.New(net.Params(), sgd.DefaultConfig())
	// A few steps so both weights and momentum are non-trivial.
	x := tensor.New(4, 3, 8, 8)
	rng.FillNormal(x, 0, 1)
	labels := []int{0, 1, 2, 0}
	ce := nn.NewSoftmaxCrossEntropy()
	for i := 0; i < 5; i++ {
		nn.ZeroGrads(net.Params())
		out := net.Forward(x, true)
		if _, err := ce.Forward(out, labels); err != nil {
			t.Fatal(err)
		}
		net.Backward(ce.Backward())
		opt.Step(0.05)
	}
	return net, opt
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	net, opt := trainedModel(t, 1)
	ck, err := Capture(net.Params(), opt, 500, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh model with the same architecture but different weights.
	net2, opt2 := trainedModel(t, 2)
	if err := ck.Restore(net2.Params(), opt2); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		p2 := net2.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != p2.Value.Data[j] {
				t.Fatalf("param %d elem %d differs after restore", i, j)
			}
		}
	}
	// Momentum restored: the next identical update must match exactly.
	g := make([]float32, nn.ParamCount(net.Params()))
	for i := range g {
		g[i] = float32(i%11) * 0.01
	}
	if err := nn.UnflattenGrads(net.Params(), g); err != nil {
		t.Fatal(err)
	}
	if err := nn.UnflattenGrads(net2.Params(), g); err != nil {
		t.Fatal(err)
	}
	opt.Step(0.03)
	opt2.Step(0.03)
	for i, p := range net.Params() {
		p2 := net2.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != p2.Value.Data[j] {
				t.Fatal("momentum state not restored: updates diverge")
			}
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	net, opt := trainedModel(t, 3)
	ck, err := Capture(net.Params(), opt, 42, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 42 || got.Epoch != 1.25 {
		t.Fatalf("counters %d/%v, want 42/1.25", got.Step, got.Epoch)
	}
	net2, opt2 := trainedModel(t, 4)
	if err := got.Restore(net2.Params(), opt2); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		p2 := net2.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != p2.Value.Data[j] {
				t.Fatal("weights differ after disk round trip")
			}
		}
	}
}

func TestRestoreRejectsWrongArchitecture(t *testing.T) {
	net, opt := trainedModel(t, 5)
	ck, err := Capture(net.Params(), opt, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	other := models.NewTinyResNet(3, 1, tensor.NewRNG(6))
	if err := ck.Restore(other.Params(), nil); err == nil {
		t.Fatal("restoring into a different architecture must fail")
	}
	// Same shapes but different names must also fail.
	renamed := models.NewSmallCNN(3, 8, tensor.NewRNG(7))
	renamed.Params()[0].Name = "impostor"
	if err := ck.Restore(renamed.Params(), nil); err == nil {
		t.Fatal("name mismatch must fail")
	}
}

func TestCaptureWithoutOptimizer(t *testing.T) {
	net, _ := trainedModel(t, 8)
	ck, err := Capture(net.Params(), nil, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	net2, _ := trainedModel(t, 9)
	if err := got.Restore(net2.Params(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty reader should error")
	}
	if _, err := Read(bytes.NewReader(make([]byte, 28))); err == nil {
		t.Fatal("bad magic should error")
	}
	net, opt := trainedModel(t, 10)
	ck, _ := Capture(net.Params(), opt, 0, 0)
	var buf bytes.Buffer
	ck.WriteTo(&buf)
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader(full[:len(full)/3])); err == nil {
		t.Fatal("truncated checkpoint should error")
	}

	// Headers whose length fields promise what the stream does not hold: 16
	// GiB of optimizer state in a 32-byte checkpoint, and one 4 GiB parameter
	// (4·sz overflowed a 32-bit int). Read must fail having allocated about
	// what it was given.
	for name, hostile := range map[string][]byte{
		"optimizer state": hostileHeader(0),
		"param size":      hostileHeader(1),
	} {
		var err error
		if got := allocatedBytes(func() { _, err = Read(bytes.NewReader(hostile)) }); got >= 1<<20 {
			t.Errorf("%s: Read allocated %d bytes for a %d-byte checkpoint", name, got, len(hostile))
		}
		if err == nil {
			t.Errorf("%s: a payload the stream does not hold should fail", name)
		}
	}
}

// hostileHeader is a checkpoint header with params parameters: none, then
// 2³²−1 optimizer state elements; or one unnamed parameter of 2³⁰ elements.
func hostileHeader(params uint32) []byte {
	b := make([]byte, 28, 32)
	binary.LittleEndian.PutUint32(b[0:], magic)
	binary.LittleEndian.PutUint32(b[4:], version)
	binary.LittleEndian.PutUint32(b[24:], params)
	if params == 0 {
		return binary.LittleEndian.AppendUint32(b, 1<<32-1)
	}
	return binary.LittleEndian.AppendUint32(append(b, 0, 0), 1<<30)
}

// allocatedBytes reports the heap bytes the process allocates while fn runs.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadCheckpoint: Read never panics, never allocates past a small
// multiple of its input, and what it accepts writes back as the bytes it
// consumed.
func FuzzReadCheckpoint(f *testing.F) {
	net := models.NewSmallCNN(3, 4, tensor.NewRNG(1))
	ck, err := Capture(net.Params()[:2], sgd.New(net.Params()[:2], sgd.DefaultConfig()), 3, 0.5)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		var got *Checkpoint
		var err error
		// A parameter costs its name, two slice headers and their append
		// growth; a payload two copies of itself.
		if n := allocatedBytes(func() { got, err = Read(r) }); n > uint64(32*len(b))+1<<18 {
			t.Fatalf("Read allocated %d bytes for a %d-byte input", n, len(b))
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if _, err := got.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if consumed := b[:len(b)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("accepted checkpoint does not round-trip: %d bytes read, %d written", len(consumed), again.Len())
		}
	})
}

func TestSGDStateExportImportErrors(t *testing.T) {
	net, opt := trainedModel(t, 11)
	n := nn.ParamCount(net.Params())
	if opt.StateLen() != n {
		t.Fatalf("StateLen %d, want %d", opt.StateLen(), n)
	}
	if err := opt.ExportState(make([]float32, n-1)); err == nil {
		t.Fatal("short export should error")
	}
	if err := opt.ImportState(make([]float32, n+1)); err == nil {
		t.Fatal("long import should error")
	}
}
