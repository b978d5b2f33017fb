package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// BFloat16 truncates each element to a bfloat16 on the wire — a fixed 2x
// reduction with no header, no shared state between elements, and (unlike
// int8) no bucket-global scale, so a single outlier cannot destroy the
// precision of its neighbours. bfloat16 keeps float32's 8 exponent bits, so
// it never overflows where f32 would not, and 7 mantissa bits; the truncation
// error is what error feedback recovers. Encode rounds to nearest, ties to
// even — the same rounding the hardware would apply — so payloads are
// deterministic and every rank decodes identical values.

// f32ToBF16 truncates to the top 16 bits with round-to-nearest-even on the
// dropped half. NaN is special-cased: rounding could otherwise clear the
// surviving mantissa bits and silently turn NaN into Inf, so the quiet bit
// is forced instead (divergence must stay visible, exactly as the
// uncompressed path would surface it).
func f32ToBF16(f float32) uint16 {
	b := math.Float32bits(f)
	if b&^(1<<31) > 0x7F800000 {
		return uint16(b>>16) | 0x0040
	}
	b += 0x7FFF + b>>16&1
	return uint16(b >> 16)
}

// bf16ToF32 widens by shifting back — exact by construction.
func bf16ToF32(h uint16) float32 {
	return math.Float32frombits(uint32(h) << 16)
}

// BFloat16 is the bfloat16 wire format: 2 bytes per element, RNE, full f32
// exponent range.
type BFloat16 struct{}

// Name implements Codec.
func (BFloat16) Name() string { return "bf16" }

// MaxCompressedSize implements Codec.
func (BFloat16) MaxCompressedSize(n int) int { return 2 * n }

// AppendCompress implements Codec.
func (BFloat16) AppendCompress(dst []byte, src []float32) []byte {
	off := len(dst)
	dst = grow(dst, 2*len(src))
	halfEncodeBF16(dst[off:], src)
	return dst
}

// halfEncodeBF16 fills b[2i:2i+2] = bf16(src[i]), 8-wide unrolled — the
// conversion is a handful of integer ops, so the unroll matters here the way
// it does for int8.
func halfEncodeBF16(b []byte, src []float32) {
	n := len(src)
	_ = b[:2*n]
	i := 0
	for ; i+8 <= n; i += 8 {
		s := src[i : i+8 : i+8]
		d := b[2*i : 2*i+16 : 2*i+16]
		binary.LittleEndian.PutUint16(d[0:], f32ToBF16(s[0]))
		binary.LittleEndian.PutUint16(d[2:], f32ToBF16(s[1]))
		binary.LittleEndian.PutUint16(d[4:], f32ToBF16(s[2]))
		binary.LittleEndian.PutUint16(d[6:], f32ToBF16(s[3]))
		binary.LittleEndian.PutUint16(d[8:], f32ToBF16(s[4]))
		binary.LittleEndian.PutUint16(d[10:], f32ToBF16(s[5]))
		binary.LittleEndian.PutUint16(d[12:], f32ToBF16(s[6]))
		binary.LittleEndian.PutUint16(d[14:], f32ToBF16(s[7]))
	}
	for ; i < n; i++ {
		binary.LittleEndian.PutUint16(b[2*i:], f32ToBF16(src[i]))
	}
}

// Decompress implements Codec.
func (BFloat16) Decompress(dst []float32, payload []byte) error {
	if len(payload) != 2*len(dst) {
		return fmt.Errorf("compress: bf16 payload %d bytes, want %d", len(payload), 2*len(dst))
	}
	for i := range dst {
		dst[i] = bf16ToF32(binary.LittleEndian.Uint16(payload[2*i:]))
	}
	return nil
}

// DecompressAdd implements Codec: dst[i] += decoded[i], bitwise equal to
// decode-then-add (the decode is exact, the add is the same FP op).
func (BFloat16) DecompressAdd(dst []float32, payload []byte) error {
	if len(payload) != 2*len(dst) {
		return fmt.Errorf("compress: bf16 payload %d bytes, want %d", len(payload), 2*len(dst))
	}
	for i := range dst {
		dst[i] += bf16ToF32(binary.LittleEndian.Uint16(payload[2*i:]))
	}
	return nil
}
