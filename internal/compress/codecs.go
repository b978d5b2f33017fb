package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/mpi"
)

// grow extends b by n bytes without the temporary-slice allocation of
// append(b, make([]byte, n)...), returning the extended slice. When the
// caller sized b's capacity with MaxCompressedSize this never allocates.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[: len(b)+n : cap(b)]
	}
	nb := make([]byte, len(b)+n, 2*cap(b)+n)
	copy(nb, b)
	return nb
}

// Identity moves raw little-endian float32 bytes — no compression. It is the
// "none" codec: running it through the bucketed path makes wire-byte
// accounting directly comparable with the lossy codecs.
type Identity struct{}

// Name implements Codec.
func (Identity) Name() string { return "none" }

// MaxCompressedSize implements Codec.
func (Identity) MaxCompressedSize(n int) int { return 4 * n }

// AppendCompress implements Codec.
func (Identity) AppendCompress(dst []byte, src []float32) []byte {
	off := len(dst)
	dst = grow(dst, 4*len(src))
	mpi.EncodeFloat32s(dst[off:], src)
	return dst
}

// Decompress implements Codec.
func (Identity) Decompress(dst []float32, payload []byte) error {
	if len(payload) != 4*len(dst) {
		return fmt.Errorf("compress: identity payload %d bytes, want %d", len(payload), 4*len(dst))
	}
	mpi.DecodeFloat32s(dst, payload)
	return nil
}

// DecompressAdd implements Codec: the payload is summed into dst where it
// lies (mpi.AddFloat32s, the raw allreduces' receive-reduce).
func (Identity) DecompressAdd(dst []float32, payload []byte) error {
	if len(payload) != 4*len(dst) {
		return fmt.Errorf("compress: identity payload %d bytes, want %d", len(payload), 4*len(dst))
	}
	mpi.AddFloat32s(dst, payload)
	return nil
}

// Int8 quantizes a bucket to signed 8-bit integers with one shared linear
// scale: scale = max|v|/127, q = round(v/scale). Payload is 4 bytes of scale
// followed by one byte per element — a fixed 3.97x reduction (4n -> n+4).
// The worst-case round-trip error per element is scale/2 = max|v|/254.
type Int8 struct{}

// Name implements Codec.
func (Int8) Name() string { return "int8" }

// MaxCompressedSize implements Codec.
func (Int8) MaxCompressedSize(n int) int { return 4 + n }

// roundMagic is 1.5×2²³: adding and subtracting it rounds a float32 in
// (-2²², 2²²) to the nearest integer, ties to even — the hardware rounding
// the FPU applies at the 2²³ binade. Quantized inputs live in roughly
// [-127.5, 127.5], far inside the valid range, so the magic round is exactly
// math.RoundToEven without the float64 excursion or its branches.
const roundMagic = float32(3 << 22)

// AppendCompress implements Codec. The scan and quantize loops are 8-wide
// unrolled: |v| is an integer mask on the float bits, the max-abs reduction
// is an integer compare (NaN bit patterns exceed +Inf's, so non-finite inputs
// still poison the scale), and rounding is the branchless magic-constant add.
func (c Int8) AppendCompress(dst []byte, src []float32) []byte {
	n := len(src)
	scale := math.Float32frombits(int8MaxBits(src)) / 127
	off := len(dst)
	dst = grow(dst, 4+n)
	b := dst[off:]
	binary.LittleEndian.PutUint32(b, math.Float32bits(scale))
	int8Quantize(b[4:4+n], src, scale)
	return dst
}

// int8MaxBits scans src for the maximum magnitude, returned as its IEEE bit
// pattern: |v| is an integer mask on the float bits and the reduction is an
// integer compare.
func int8MaxBits(src []float32) uint32 {
	n := len(src)
	var m0, m1, m2, m3, m4, m5, m6, m7 uint32
	i := 0
	for ; i+8 <= n; i += 8 {
		s := src[i : i+8 : i+8]
		if b := math.Float32bits(s[0]) &^ (1 << 31); b > m0 {
			m0 = b
		}
		if b := math.Float32bits(s[1]) &^ (1 << 31); b > m1 {
			m1 = b
		}
		if b := math.Float32bits(s[2]) &^ (1 << 31); b > m2 {
			m2 = b
		}
		if b := math.Float32bits(s[3]) &^ (1 << 31); b > m3 {
			m3 = b
		}
		if b := math.Float32bits(s[4]) &^ (1 << 31); b > m4 {
			m4 = b
		}
		if b := math.Float32bits(s[5]) &^ (1 << 31); b > m5 {
			m5 = b
		}
		if b := math.Float32bits(s[6]) &^ (1 << 31); b > m6 {
			m6 = b
		}
		if b := math.Float32bits(s[7]) &^ (1 << 31); b > m7 {
			m7 = b
		}
	}
	for ; i < n; i++ {
		if b := math.Float32bits(src[i]) &^ (1 << 31); b > m0 {
			m0 = b
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	if m4 > m0 {
		m0 = m4
	}
	if m5 > m0 {
		m0 = m5
	}
	if m6 > m0 {
		m0 = m6
	}
	if m7 > m0 {
		m0 = m7
	}
	return m0
}

// int8Quantize fills q[i] = quantInt8(src[i], scale). A zero or non-finite
// scale writes zero bytes: scale == 0 means an all-zero
// (or all-subnormal) bucket; a NaN/Inf gradient element must surface as
// divergence, exactly as the uncompressed path would — the scale decodes the
// whole bucket to NaN/Inf, and float-to-int conversion of non-finite values
// is implementation-defined, so don't attempt it.
func int8Quantize(q []byte, src []float32, scale float32) {
	n := len(src)
	_ = q[:n]
	if scale == 0 || math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) {
		for i := range q[:n] {
			q[i] = 0
		}
		return
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		s := src[i : i+8 : i+8]
		d := q[i : i+8 : i+8]
		d[0] = quantInt8(s[0], scale)
		d[1] = quantInt8(s[1], scale)
		d[2] = quantInt8(s[2], scale)
		d[3] = quantInt8(s[3], scale)
		d[4] = quantInt8(s[4], scale)
		d[5] = quantInt8(s[5], scale)
		d[6] = quantInt8(s[6], scale)
		d[7] = quantInt8(s[7], scale)
	}
	for ; i < n; i++ {
		q[i] = quantInt8(src[i], scale)
	}
}

// quantInt8 rounds v/scale to the nearest integer (ties to even) and clamps
// to ±127. The magic round is bit-identical to the old
// math.RoundToEven(float64(v/scale)): both round the exact same float32
// quotient to nearest-even, and the clamp handles the quotient's worst-case
// overshoot past ±127 identically.
func quantInt8(v, scale float32) byte {
	r := (v/scale + roundMagic) - roundMagic
	if r > 127 {
		r = 127
	} else if r < -127 {
		r = -127
	}
	return byte(int8(r))
}

// Decompress implements Codec, 8-wide unrolled.
func (Int8) Decompress(dst []float32, payload []byte) error {
	if len(payload) != 4+len(dst) {
		return fmt.Errorf("compress: int8 payload %d bytes, want %d", len(payload), 4+len(dst))
	}
	scale := math.Float32frombits(binary.LittleEndian.Uint32(payload))
	n := len(dst)
	p := payload[4 : 4+n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := p[i : i+8 : i+8]
		d[0] = float32(int8(s[0])) * scale
		d[1] = float32(int8(s[1])) * scale
		d[2] = float32(int8(s[2])) * scale
		d[3] = float32(int8(s[3])) * scale
		d[4] = float32(int8(s[4])) * scale
		d[5] = float32(int8(s[5])) * scale
		d[6] = float32(int8(s[6])) * scale
		d[7] = float32(int8(s[7])) * scale
	}
	for ; i < n; i++ {
		dst[i] = float32(int8(p[i])) * scale
	}
	return nil
}

// DecompressAdd implements Codec: dst[i] += q[i]*scale, 8-wide unrolled.
// Every element performs the same multiply and add Decompress-then-add
// would, including the NaN/Inf-scale path (0*NaN = NaN accumulates).
func (Int8) DecompressAdd(dst []float32, payload []byte) error {
	if len(payload) != 4+len(dst) {
		return fmt.Errorf("compress: int8 payload %d bytes, want %d", len(payload), 4+len(dst))
	}
	scale := math.Float32frombits(binary.LittleEndian.Uint32(payload))
	n := len(dst)
	p := payload[4 : 4+n]
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := p[i : i+8 : i+8]
		d[0] += float32(int8(s[0])) * scale
		d[1] += float32(int8(s[1])) * scale
		d[2] += float32(int8(s[2])) * scale
		d[3] += float32(int8(s[3])) * scale
		d[4] += float32(int8(s[4])) * scale
		d[5] += float32(int8(s[5])) * scale
		d[6] += float32(int8(s[6])) * scale
		d[7] += float32(int8(s[7])) * scale
	}
	for ; i < n; i++ {
		dst[i] += float32(int8(p[i])) * scale
	}
	return nil
}

// magSorter orders candidate indices by descending magnitude of the bucket
// values, ties toward the lower index — a strict total order (no two
// candidates compare equal), which is what makes the selection deterministic.
// It is the reference comparator: the key-based quickselect below must keep
// exactly the set a full sort under this order would keep (the equivalence
// the TopKQuickselectMatchesSort suite pins), so it stays here as the
// executable spec even though the hot path no longer runs it.
type magSorter struct {
	idx []int
	src []float32
}

func (s *magSorter) Len() int      { return len(s.idx) }
func (s *magSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *magSorter) Less(a, b int) bool {
	av := math.Abs(float64(s.src[s.idx[a]]))
	bv := math.Abs(float64(s.src[s.idx[b]]))
	if av != bv {
		return av > bv
	}
	return s.idx[a] < s.idx[b]
}

// magKey packs one candidate into a single uint64 ordered exactly like
// magSorter.Less, descending: the magnitude's IEEE bit pattern in the high
// word (for non-negative floats, bit-pattern order IS magnitude order) and
// the complemented index in the low word (equal magnitudes → equal bit
// patterns → the larger ^idx, i.e. the LOWER index, wins). Selection then
// needs no gathers into src and no float compares — partitioning is straight
// uint64 arithmetic over a flat array, which is what took top-k encode from
// ~0.3 GB/s to multi-GB/s. Keys are unique (the index field), so the order
// is strictly total.
//
// Non-finite values: a NaN's magnitude bits exceed +Inf's, so NaN elements
// are always selected (and poison the decoded bucket, exactly like the
// uncompressed path would surface divergence); the old float comparator left
// NaN ordering to the sort algorithm's whims.
func magKey(v float32, i int) uint64 {
	return uint64(math.Float32bits(v)&^(1<<31))<<32 | uint64(^uint32(i))
}

// magKeys fills keys[i] = magKey(src[i], i).
func magKeys(keys []uint64, src []float32) {
	_ = keys[:len(src)]
	for i, v := range src {
		keys[i] = magKey(v, i)
	}
}

// selectCutoff is the window size below which selectTopKeys falls back to
// insertion sort instead of partitioning further.
const selectCutoff = 12

// selectTopKeys partially orders keys so positions [0, k) hold the k largest
// keys — i.e. the k largest magnitudes under the magSorter order — in
// unspecified order. O(n) expected versus the O(n log n) full sort, and it
// selects the IDENTICAL set the full sort would keep: the key order is
// strictly total, so "the k largest" is a unique set no matter how it is
// found.
func selectTopKeys(keys []uint64, k int) {
	lo, hi := 0, len(keys)
	if k <= 0 || k >= hi {
		return
	}
	for hi-lo > selectCutoff {
		p := partitionKeys(keys, lo, hi)
		if p == k || p == k-1 {
			return
		}
		if p > k {
			hi = p
		} else {
			lo = p + 1
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && keys[j] > keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// partitionKeys picks a median-of-three pivot (deterministic — payloads must
// not depend on a random source) and Lomuto-partitions [lo, hi) in
// descending key order, returning the pivot's final position.
func partitionKeys(keys []uint64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if keys[mid] > keys[lo] {
		keys[mid], keys[lo] = keys[lo], keys[mid]
	}
	if keys[hi-1] > keys[lo] {
		keys[hi-1], keys[lo] = keys[lo], keys[hi-1]
	}
	if keys[hi-1] > keys[mid] {
		keys[hi-1], keys[mid] = keys[mid], keys[hi-1]
	}
	keys[mid], keys[hi-1] = keys[hi-1], keys[mid]
	p := keys[hi-1]
	i := lo
	for j := lo; j < hi-1; j++ {
		if keys[j] > p {
			keys[i], keys[j] = keys[j], keys[i]
			i++
		}
	}
	keys[i], keys[hi-1] = keys[hi-1], keys[i]
	return i
}

// topkBuf is the per-encode scratch — the candidate keys and the kept-index
// staging area — hoisted out of AppendCompress so steady-state top-k encode
// allocates nothing.
type topkBuf struct {
	keys []uint64
	kept []int
}

// topkScratch recycles encode scratch across AppendCompress calls: a bounded
// channel freelist, so reuse never allocates and bursts fall through to make.
var topkScratch = make(chan *topkBuf, 16)

func getTopkBuf(n, k int) *topkBuf {
	var s *topkBuf
	select {
	case s = <-topkScratch:
	default:
		s = &topkBuf{}
	}
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
	}
	s.keys = s.keys[:n]
	if cap(s.kept) < k {
		s.kept = make([]int, k)
	}
	s.kept = s.kept[:k]
	return s
}

func putTopkBuf(s *topkBuf) {
	select {
	case topkScratch <- s:
	default:
	}
}

// TopK keeps the ceil(Ratio*n) largest-magnitude elements of a bucket at
// full precision and drops the rest. Payload: 4-byte element count k, then k
// 4-byte indices in strictly ascending order, then k 4-byte values; the
// decoders refuse any other index order. Kept values round-trip exactly;
// dropped mass is what error feedback recovers across steps. Ties break
// toward the lower index so payloads are deterministic.
type TopK struct {
	// Ratio is the kept fraction in (0, 1].
	Ratio float64
}

// Name implements Codec.
func (TopK) Name() string { return "topk" }

// keep returns k for a bucket of n elements: at least 1, at most n.
func (t TopK) keep(n int) int {
	k := int(math.Ceil(t.Ratio * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// MaxCompressedSize implements Codec.
func (t TopK) MaxCompressedSize(n int) int { return 4 + 8*t.keep(n) }

// AppendCompress implements Codec. Selection is quickselect over packed
// (magnitude-bits, ^index) keys (expected O(n), integer compares, no gathers)
// rather than a full sort; the strict total order guarantees the kept SET —
// and after the ascending index sort, the payload bytes — are identical to
// what the full sort under the magSorter order produced.
func (t TopK) AppendCompress(dst []byte, src []float32) []byte {
	n := len(src)
	k := t.keep(n)
	s := getTopkBuf(n, k)
	magKeys(s.keys, src)
	selectTopKeys(s.keys, k)
	kept := s.kept[:k]
	for i, key := range s.keys[:k] {
		kept[i] = int(^uint32(key))
	}
	sort.Ints(kept) // ascending index order keeps payloads canonical
	off := len(dst)
	dst = grow(dst, 4+8*k)
	b := dst[off:]
	binary.LittleEndian.PutUint32(b, uint32(k))
	for i, j := range kept {
		binary.LittleEndian.PutUint32(b[4+4*i:], uint32(j))
		binary.LittleEndian.PutUint32(b[4+4*k+4*i:], math.Float32bits(src[j]))
	}
	putTopkBuf(s)
	return dst
}

// Decompress implements Codec.
func (t TopK) Decompress(dst []float32, payload []byte) error {
	k, err := t.parse(dst, payload)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < k; i++ {
		j := binary.LittleEndian.Uint32(payload[4+4*i:])
		dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4+4*k+4*i:]))
	}
	return nil
}

// DecompressAdd implements Codec: dst[j] += value at each kept index j,
// skipping the dropped indices entirely — the whole point of the fused path
// for a sparse codec (touch k elements, not the full bucket). Skipping a
// dropped index omits a += 0, which is only observable when dst held -0
// there; accumulators that start at +0 never do (see the interface contract).
func (t TopK) DecompressAdd(dst []float32, payload []byte) error {
	k, err := t.parse(dst, payload)
	if err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		j := binary.LittleEndian.Uint32(payload[4+4*i:])
		dst[j] += math.Float32frombits(binary.LittleEndian.Uint32(payload[4+4*k+4*i:]))
	}
	return nil
}

// parse validates a topk payload against dst's length and returns k. The
// header arithmetic is unsigned 64-bit, so no count wraps where int is 32
// bits. A canonical payload's indices are strictly ascending (appendSelected
// sorts them) and nothing else is accepted: a repeated index would decode to
// the last value through Decompress but to the sum through DecompressAdd.
// Every index is checked here, once, before either path writes dst.
func (TopK) parse(dst []float32, payload []byte) (int, error) {
	if len(payload) < 4 {
		return 0, fmt.Errorf("compress: topk payload %d bytes, want >= 4", len(payload))
	}
	k := uint64(binary.LittleEndian.Uint32(payload))
	if uint64(len(payload)) != 4+8*k {
		return 0, fmt.Errorf("compress: topk payload %d bytes, want %d for k=%d", len(payload), 4+8*k, k)
	}
	if k > uint64(len(dst)) {
		return 0, fmt.Errorf("compress: topk k=%d exceeds bucket length %d", k, len(dst))
	}
	var prev uint64
	for i := uint64(0); i < k; i++ {
		j := uint64(binary.LittleEndian.Uint32(payload[4+4*i:]))
		if j >= uint64(len(dst)) {
			return 0, fmt.Errorf("compress: topk index %d exceeds bucket length %d", j, len(dst))
		}
		if i > 0 && j <= prev {
			return 0, fmt.Errorf("compress: topk index %d follows %d, want strictly ascending", j, prev)
		}
		prev = j
	}
	return int(k), nil
}
