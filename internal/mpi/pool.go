package mpi

import "math/bits"

// Shared, size-classed buffer pools for the communication hot path. Buffers
// are recycled through bounded per-class freelists (buffered channels, so a
// recycle is a single lock-free-ish channel op and never allocates — unlike
// sync.Pool, whose Put boxes the slice header). Capacities are exact powers
// of two; Put of a buffer whose capacity is not a pool class silently drops
// it to the garbage collector, so mixing pooled and plain buffers is always
// safe, just not free.
//
// Ownership rules (the contract the whole repo follows):
//
//   - GetBytes/GetFloats hand the caller exclusive ownership of the buffer.
//   - PutBytes/PutFloats transfer ownership back; the caller must not touch
//     the buffer afterwards (another goroutine may already be writing it).
//   - Comm.SendOwned and Comm.SendFloats consume their buffer: the transport
//     releases (or delivers) it, and the caller must not reuse it.
//   - Comm.Recv returns a buffer the RECEIVER owns; release it with PutBytes
//     when decoded, or keep it indefinitely (it is then simply collected).
//
// Returned buffers carry arbitrary stale contents; callers that need zeroed
// memory must clear them (GetFloatsZeroed does).

const (
	// poolMinClass..poolMaxClass are log2 capacities: 64 B/elements up to
	// 16 Mi. Requests above the top class fall through to plain make.
	poolMinClass = 6
	poolMaxClass = 24
)

// poolSlots bounds how many free buffers a class retains, by one rule: as
// many as fit a fixed budget (poolClassBudget elements), never more than the
// 256 the small classes that cycle fastest (tags, barrier tokens, segment
// headers) get and never fewer than 4, so a burst of multi-megabyte buffers
// can't pin memory forever. The 64 KiB class — one allreduce pipeline
// segment — keeps 128: a 4-rank multi-color step has some 72 segments in
// flight at once, and a class that retains fewer drops them on Put and
// re-makes them on the next Get, every step.
func poolSlots(class int) int {
	return min(max(poolClassBudget>>class, 4), 256)
}

const poolClassBudget = 8 << 20

// poolClass returns the class whose capacity (1<<class) holds n, or -1 when
// n exceeds the largest class.
func poolClass(n int) int {
	c := bits.Len(uint(n - 1)) // ceil(log2 n) for n >= 2
	if c < poolMinClass {
		c = poolMinClass
	}
	if c > poolMaxClass {
		return -1
	}
	return c
}

// capClass returns the class a buffer of capacity cp belongs to, or -1 when
// cp is not an exact pool class (foreign buffer: drop it).
func capClass(cp int) int {
	if cp < 1<<poolMinClass || cp > 1<<poolMaxClass || cp&(cp-1) != 0 {
		return -1
	}
	return bits.Len(uint(cp)) - 1
}

var (
	byteClasses  [poolMaxClass + 1]chan []byte
	floatClasses [poolMaxClass + 1]chan []float32
)

func init() {
	for c := poolMinClass; c <= poolMaxClass; c++ {
		byteClasses[c] = make(chan []byte, poolSlots(c))
		floatClasses[c] = make(chan []float32, poolSlots(c))
	}
}

// GetBytes returns a length-n byte buffer from the pool (contents stale).
func GetBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	c := poolClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	select {
	case b := <-byteClasses[c]:
		return b[:n]
	default:
		return make([]byte, n, 1<<c)
	}
}

// PutBytes returns b to the pool. b must not be used (or Put again) after.
// Nil and foreign-capacity buffers are dropped harmlessly.
func PutBytes(b []byte) {
	c := capClass(cap(b))
	if c < 0 {
		return
	}
	select {
	case byteClasses[c] <- b[:0]:
	default:
	}
}

// GetFloats returns a length-n float32 buffer from the pool (contents stale).
func GetFloats(n int) []float32 {
	if n == 0 {
		return nil
	}
	c := poolClass(n)
	if c < 0 {
		return make([]float32, n)
	}
	select {
	case f := <-floatClasses[c]:
		return f[:n]
	default:
		return make([]float32, n, 1<<c)
	}
}

// GetFloatsZeroed is GetFloats with the buffer cleared — for accumulators
// whose arithmetic must start from exact +0 (bitwise parity with a fresh
// make).
func GetFloatsZeroed(n int) []float32 {
	f := GetFloats(n)
	for i := range f {
		f[i] = 0
	}
	return f
}

// PutFloats returns f to the pool. f must not be used (or Put again) after.
func PutFloats(f []float32) {
	c := capClass(cap(f))
	if c < 0 {
		return
	}
	select {
	case floatClasses[c] <- f[:0]:
	default:
	}
}
