package mpi

import (
	"math/bits"
	"sync/atomic"
)

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
//   - Comm.LendFloats hands the receiver a VIEW of the sender's slice (on the
//     transports that can; the others copy): the sender keeps ownership but
//     must not write the slice until the protocol tells it the receiver is
//     done, the receiver (RecvFloatsAdd/RecvFloatsInto) reads it in place and
//     releases nothing, and the view never enters the pool.
//   - Comm.SendFloatsAll encodes once into one pooled buffer every
//     destination reads; each receiver drops one reference and the last one
//     returns the buffer to the pool (sharedBuf).
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

// sharedBuf is one pooled payload read by several receivers — the down-phase
// broadcast of a tree collective encodes a segment once for all children.
// refs counts the readers still to come; the last release recycles both the
// bytes and the header, so a steady-state broadcast allocates nothing.
type sharedBuf struct {
	buf  []byte
	refs atomic.Int32
}

// sharedFree recycles sharedBuf headers. 256 covers the segments a 4-colour
// step keeps in flight several times over; beyond it headers are collected.
var sharedFree = make(chan *sharedBuf, 256)

// getShared returns a length-n pooled buffer that refs receivers will release.
func getShared(n, refs int) *sharedBuf {
	var s *sharedBuf
	select {
	case s = <-sharedFree:
	default:
		s = new(sharedBuf)
	}
	s.buf = GetBytes(n)
	s.refs.Store(int32(refs))
	return s
}

// drop gives up n references — one for a receiver done reading, several for
// a sender abandoning the destinations it never reached; whoever brings the
// count to zero recycles the buffer. Dropping none must not look at the
// count: it may already be zero, and the buffer somebody else's.
func (s *sharedBuf) drop(n int) {
	if n == 0 || s.refs.Add(int32(-n)) != 0 {
		return
	}
	PutBytes(s.buf)
	s.buf = nil
	select {
	case sharedFree <- s:
	default:
	}
}
