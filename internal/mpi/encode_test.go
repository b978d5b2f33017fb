package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// Scalar reference implementations the unrolled loops must match bit-exactly.
func encodeRef(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

func decodeRef(dst []float32, b []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

func TestEncodeDecodeUnrolledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, math.MaxFloat32,
	}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 1000} {
		src := make([]float32, n)
		for i := range src {
			if i < len(special) {
				src[i] = special[i]
			} else {
				src[i] = float32(rng.NormFloat64())
			}
		}
		want := make([]byte, 4*n)
		encodeRef(want, src)
		got := make([]byte, 4*n)
		EncodeFloat32s(got, src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: encode byte %d = %#x, want %#x", n, i, got[i], want[i])
			}
		}
		wantF := make([]float32, n)
		decodeRef(wantF, want)
		gotF := make([]float32, n)
		DecodeFloat32s(gotF, want)
		for i := range wantF {
			if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
				t.Fatalf("n=%d: decode elem %d = %x, want %x (bit pattern)", n, i,
					math.Float32bits(gotF[i]), math.Float32bits(wantF[i]))
			}
		}
		// Destinations that start mid-buffer, the bytes off any float
		// boundary: a frame's payload after its header, a window of an arena.
		mid := make([]byte, 4*n+3)[3:]
		EncodeFloat32s(mid, src)
		if !bytes.Equal(mid, want) {
			t.Fatalf("n=%d: encode into a misaligned destination differs", n)
		}
		midF := make([]float32, n+1)[1:]
		DecodeFloat32s(midF, mid)
		for i := range wantF {
			if math.Float32bits(midF[i]) != math.Float32bits(wantF[i]) {
				t.Fatalf("n=%d: decode of a misaligned payload, elem %d = %x, want %x", n, i,
					math.Float32bits(midF[i]), math.Float32bits(wantF[i]))
			}
		}
	}
}

// sameFloatBits reports bit equality with every NaN equal to every other:
// which payload an add of two NaNs keeps is the compiler's operand order.
func sameFloatBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// TestRecvFloatsAddMatchesRecvThenAdd: summing a payload where it lies gives
// the bits of decoding it into a scratch and adding that — over the wire,
// and on payloads that start mid-buffer, on and off a 4-byte boundary (the
// []float32 view and the per-element fallback) — and a payload of the wrong
// length is an error that leaves dst alone and still releases the buffer.
func TestRecvFloatsAddMatchesRecvThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	special := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)),
		float32(math.Inf(-1)), math.SmallestNonzeroFloat32, math.MaxFloat32,
	}
	vec := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			if j := rng.Intn(3 * len(special)); j < len(special) {
				v[i] = special[j]
			} else {
				v[i] = float32(rng.NormFloat64())
			}
		}
		return v
	}
	for _, n := range []int{0, 1, 7, 8, 9, 33, 1000, 16384} {
		src, dst := vec(n), vec(n)
		want := append([]float32(nil), dst...)
		for i, v := range src {
			want[i] += v
		}
		check := func(what string, got []float32) {
			t.Helper()
			for i := range want {
				if !sameFloatBits(got[i], want[i]) {
					t.Fatalf("n=%d %s: elem %d = %x, want %x", n, what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
		w := NewWorld(2)
		got := append([]float32(nil), dst...)
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 1 {
				return c.SendFloats(0, 5, src)
			}
			return c.RecvFloatsAdd(got, 1, 5)
		})
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		check("over the wire", got)
		for _, off := range []int{4, 1} {
			payload := make([]byte, off+4*n)[off:]
			EncodeFloat32s(payload, src)
			got := append([]float32(nil), dst...)
			AddFloat32s(got, payload)
			check("payload at offset "+strconv.Itoa(off), got)
		}
	}

	// Wrong length: one float too many. The sender's buffer is pooled and
	// the mailbox delivers it as is, so after the error it must be back in
	// its class.
	const n = 700
	var sent *byte
	dst := vec(n)
	before := append([]float32(nil), dst...)
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			b := GetBytes(4 * (n + 1))
			sent = &b[0]
			return c.SendOwned(0, 5, b)
		}
		if err := c.RecvFloatsAdd(dst, 1, 5); err == nil {
			return errors.New("RecvFloatsAdd accepted a payload one float too long")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if math.Float32bits(dst[i]) != math.Float32bits(before[i]) {
			t.Fatalf("rejected payload still changed dst[%d]", i)
		}
	}
	for i := 0; i <= poolSlots(poolClass(4*(n+1))); i++ {
		if b := GetBytes(4 * (n + 1)); &b[0] == sent {
			return
		}
	}
	t.Fatal("the rejected payload's buffer never came back out of its pool class")
}

// FuzzAddFloat32s: for a payload starting 0–3 bytes past a 4-byte boundary
// and any float count, AddFloat32s gives the bits of decoding each element
// and adding it — through the aligned []float32 view and through the
// per-element fallback alike, NaN payloads included. The one freedom is an
// add of two NaNs: the hardware keeps the first operand's payload (quieted),
// and which operand is first is the compiler's or the kernel's choice, so
// either operand's quieted NaN is accepted there and nothing else. The
// input's first half is dst, its second half the payload.
func FuzzAddFloat32s(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 128, 63, 1, 0, 192, 127, 0, 0, 0, 64, 2, 0, 128, 255})
	f.Fuzz(func(t *testing.T, off uint8, data []byte) {
		o, n := int(off%4), len(data)/8
		dst := make([]float32, n)
		DecodeFloat32s(dst, data)
		src := data[4*n : 8*n]
		orig := append([]float32(nil), dst...)
		want := append([]float32(nil), dst...)
		for i := range want {
			want[i] += math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
		// A []float32's storage starts on a 4-byte boundary, so the payload
		// starts exactly o bytes past one.
		payload := floatBytes(make([]float32, n+1))[o : o+4*n]
		copy(payload, src)
		AddFloat32s(dst, payload)
		const quiet = 1 << 22
		for i := range want {
			got, a, b := math.Float32bits(dst[i]), math.Float32bits(orig[i]), binary.LittleEndian.Uint32(src[4*i:])
			if got == math.Float32bits(want[i]) {
				continue
			}
			if math.IsNaN(float64(orig[i])) && math.IsNaN(float64(math.Float32frombits(b))) && (got == a|quiet || got == b|quiet) {
				continue
			}
			t.Fatalf("offset %d, %d floats: elem %d = %#x, want %#x", o, n, i, got, math.Float32bits(want[i]))
		}
	})
}

func benchSizes() []int { return []int{256, 16384} }

func BenchmarkEncodeFloat32s(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(sizeName(n), func(b *testing.B) {
			src := make([]float32, n)
			for i := range src {
				src[i] = float32(i) * 0.37
			}
			dst := make([]byte, 4*n)
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				EncodeFloat32s(dst, src)
			}
		})
	}
}

func BenchmarkDecodeFloat32s(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(sizeName(n), func(b *testing.B) {
			src := make([]float32, n)
			for i := range src {
				src[i] = float32(i) * 0.37
			}
			payload := make([]byte, 4*n)
			EncodeFloat32s(payload, src)
			dst := make([]float32, n)
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DecodeFloat32s(dst, payload)
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1024 {
		return strconv.Itoa(n/1024) + "Ki"
	}
	return strconv.Itoa(n)
}
