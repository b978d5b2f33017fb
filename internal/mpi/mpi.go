// Package mpi implements the message-passing runtime the paper's distributed
// SGD is programmed against: communicators with ranks, blocking point-to-point
// send/receive, and the collectives Algorithm 1 and the DIMD shuffle use
// (barrier, broadcast, reduce, allgather, alltoallv).
//
// There are two transports and Transport is the seam between them and Comm:
// the in-memory one (World, memTransport — the default for experiments,
// standing in for shared memory + InfiniBand on one simulated cluster) and
// TCP sockets for genuinely separate processes (TCPWorld). Both deliver into
// the same mailbox and wait on it through the same loop. Everything else an
// in-memory world can do to a message is a property of the World, not another
// transport: a world built with a Topology and LinkProfiles (NewTopologyWorld,
// NewLatencyWorld) charges each send its link's wall time and counts its bytes
// per link class — the asymmetric fabric every real cluster has — and a world
// given a FaultPlan (InjectFaults) crashes ranks, loses messages by a seeded
// schedule, slows stragglers and bounds receives by a detection timeout. One
// send path applies, in order, whichever of those the world holds.
//
// The package deliberately mirrors MPI semantics — communicators own an
// isolated message context, sub-communicators are created collectively, and
// message matching is (source, tag, context) — so the collective algorithms
// in internal/allreduce read like their MPI counterparts in the paper. A
// Topology maps ranks onto nodes: the layout internal/allreduce's
// hierarchical routing and the link model above share.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"unsafe"

	"repro/internal/kernels"
)

// Maximum tag value usable by applications; larger tags are reserved for
// collectives' internal traffic.
const MaxUserTag = 1 << 16

// Reserved internal tag bases (all >= MaxUserTag).
const (
	tagBarrier = MaxUserTag + iota<<20
	tagBcast
	_ // two bands no collective uses; reserved so the tags below keep their values
	_
	tagAllGather
	tagAllToAll
	tagAllReduce
	tagSubComm
)

// ErrClosed is returned by operations on a communicator whose transport has
// been shut down.
var ErrClosed = errors.New("mpi: transport closed")

// msgKey matches a message: sending global rank, communicator context, tag.
type msgKey struct {
	src int
	ctx uint64
	tag int
}

// Transport moves byte messages between global ranks. Send must not retain
// data after returning; Recv blocks until a matching message arrives and
// returns a buffer the caller owns (release with PutBytes when done).
type Transport interface {
	Send(dst int, ctx uint64, tag int, data []byte) error
	// SendOwned is Send with ownership transfer: the transport consumes
	// data — delivering the buffer itself or releasing it to the pool — and
	// the caller must not touch it afterwards. data should come from
	// GetBytes so the receive side's release recycles it.
	SendOwned(dst int, ctx uint64, tag int, data []byte) error
	Recv(src int, ctx uint64, tag int) ([]byte, error)
	// TryRecv is a non-blocking Recv: ok reports whether a message (or a
	// terminal transport error) was available.
	TryRecv(src int, ctx uint64, tag int) (data []byte, ok bool, err error)
	// Isend is a non-blocking Send (Comm.Isend): sends to one destination
	// leave in the order they were made.
	Isend(dst int, ctx uint64, tag int, data []byte) *Request
	// NumRanks returns the number of global ranks in the world.
	NumRanks() int
}

// Comm is a communicator: an ordered group of ranks with an isolated message
// context. The zero value is not usable; obtain communicators from a World
// or from Comm.Sub.
type Comm struct {
	rank  int   // this process's rank within the communicator
	group []int // communicator rank -> global rank
	ctx   uint64
	tr    Transport
	// mem is tr when that is the in-memory transport — the one whose
	// messages may carry a payload the receiver does not own (lends) — and
	// nil over TCP, where every send copies.
	mem *memTransport
}

// newComm builds a communicator over the given global ranks.
func newComm(tr Transport, globalRank int, group []int, ctx uint64) (*Comm, error) {
	rank := -1
	for i, g := range group {
		if g == globalRank {
			rank = i
			break
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("mpi: global rank %d not in group %v", globalRank, group)
	}
	c := &Comm{rank: rank, group: append([]int(nil), group...), ctx: ctx, tr: tr}
	c.mem, _ = tr.(*memTransport)
	return c, nil
}

// lends reports whether this communicator's float sends may lend or share
// their payload instead of copying it (memTransport.lends).
func (c *Comm) lends() bool { return c.mem != nil && c.mem.lends }

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldSize returns the number of global ranks under the communicator: the
// range a RankDownError's Rank lies in.
func (c *Comm) WorldSize() int { return c.tr.NumRanks() }

// checkSend validates a send's destination rank and tag.
func (c *Comm) checkSend(dst, tag int) error {
	if dst < 0 || dst >= len(c.group) {
		return fmt.Errorf("mpi: send to invalid rank %d (size %d)", dst, len(c.group))
	}
	if tag < 0 {
		return fmt.Errorf("mpi: negative tag %d", tag)
	}
	return nil
}

// checkRecv validates a receive's source rank.
func (c *Comm) checkRecv(src int) error {
	if src < 0 || src >= len(c.group) {
		return fmt.Errorf("mpi: recv from invalid rank %d (size %d)", src, len(c.group))
	}
	return nil
}

// Send delivers data to communicator rank dst with the given tag (blocking,
// buffered: returns once the message is enqueued at the destination).
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := c.checkSend(dst, tag); err != nil {
		return err
	}
	return c.tr.Send(c.group[dst], c.ctx, tag, data)
}

// SendOwned delivers data like Send but transfers ownership of the buffer to
// the transport: no defensive copy is made, and the caller must not reuse
// data afterwards. Pair with GetBytes for an allocation-free send.
func (c *Comm) SendOwned(dst, tag int, data []byte) error {
	if err := c.checkSend(dst, tag); err != nil {
		return err
	}
	return c.tr.SendOwned(c.group[dst], c.ctx, tag, data)
}

// Recv blocks until a message with the given source rank and tag arrives and
// returns its payload. The receiver owns the returned buffer; releasing it
// with PutBytes after decoding keeps the hot path allocation-free (keeping
// it is also fine — it is then simply garbage collected).
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	if err := c.checkRecv(src); err != nil {
		return nil, err
	}
	return c.tr.Recv(c.group[src], c.ctx, tag)
}

// SendFloats sends a float32 slice (little-endian encoded). The encode goes
// through a pooled buffer handed off to the transport, so steady state does
// not allocate.
func (c *Comm) SendFloats(dst, tag int, data []float32) error {
	b := GetBytes(4 * len(data))
	EncodeFloat32s(b, data)
	return c.SendOwned(dst, tag, b)
}

// LendFloats is SendFloats without the copy where the communicator lends
// (memTransport.lends): the receiver's RecvFloatsAdd or RecvFloatsInto reads seg
// where it lies in the sender's memory. The caller keeps ownership of seg but
// must not write it until the protocol it is running tells it the receiver
// has read it — there is no completion to wait on. The tree allreduce's up
// phase is the one user: a node's next write of a lent segment is the receive
// of the reduced segment coming back down, which happens-after every read of
// it (docs/ARCHITECTURE.md, "Flat storage and the float wire"). On any other
// transport this is SendFloats; either way the receiver sees the same
// message: same size, tag and order.
func (c *Comm) LendFloats(dst, tag int, seg []float32) error {
	if !c.lends() {
		return c.SendFloats(dst, tag, seg)
	}
	if err := c.checkSend(dst, tag); err != nil {
		return err
	}
	return c.mem.sendMsg(c.group[dst], c.ctx, tag, message{data: floatBytes(seg), lent: true})
}

// SendFloatsAll sends the same float32 slice to every rank in dsts, in
// order — one SendFloats per destination as far as any receiver or byte
// counter can tell. Where the communicator lends (memTransport.lends) seg is
// encoded once into one pooled buffer all the receivers read, recycled by
// the last of them. seg is the caller's again on return.
func (c *Comm) SendFloatsAll(dsts []int, tag int, seg []float32) error {
	if !c.lends() {
		for _, dst := range dsts {
			if err := c.SendFloats(dst, tag, seg); err != nil {
				return err
			}
		}
		return nil
	}
	for _, dst := range dsts {
		if err := c.checkSend(dst, tag); err != nil {
			return err
		}
	}
	if len(dsts) == 0 {
		return nil
	}
	sb := getShared(4*len(seg), len(dsts))
	EncodeFloat32s(sb.buf, seg)
	for i, dst := range dsts {
		if err := c.mem.sendMsg(c.group[dst], c.ctx, tag, message{data: sb.buf, shared: sb}); err != nil {
			// The transport released the refused message's reference; the
			// destinations never reached are given up here.
			sb.drop(len(dsts) - i - 1)
			return err
		}
	}
	return nil
}

// recvMsg receives the next matching message without taking ownership of a
// lent or shared payload: read m.data, then m.release().
func (c *Comm) recvMsg(src, tag int) (message, error) {
	if c.mem == nil {
		b, err := c.Recv(src, tag)
		return message{data: b}, err
	}
	if err := c.checkRecv(src); err != nil {
		return message{}, err
	}
	return c.mem.recvMsg(c.group[src], c.ctx, tag)
}

// RecvFloatsInto receives a message sent with SendFloats, LendFloats or
// SendFloatsAll, decodes it into dst, and releases the payload. The payload
// must describe exactly len(dst) floats.
func (c *Comm) RecvFloatsInto(dst []float32, src, tag int) error {
	m, err := c.recvMsg(src, tag)
	if err != nil {
		return err
	}
	defer m.release()
	if len(m.data) != 4*len(dst) {
		return fmt.Errorf("mpi: float payload %d bytes, want %d", len(m.data), 4*len(dst))
	}
	DecodeFloat32s(dst, m.data)
	return nil
}

// RecvFloatsAdd receives a message sent with SendFloats, LendFloats or
// SendFloatsAll and adds it into dst element by element, straight from the
// payload where it lies — a transport buffer, the sender's own memory, a
// shared buffer — which it releases on every path: the receive-reduce of
// every allreduce hop, without a scratch copy. The payload must describe
// exactly len(dst) floats.
func (c *Comm) RecvFloatsAdd(dst []float32, src, tag int) error {
	m, err := c.recvMsg(src, tag)
	if err != nil {
		return err
	}
	defer m.release()
	if len(m.data) != 4*len(dst) {
		return fmt.Errorf("mpi: float payload %d bytes, want %d", len(m.data), 4*len(dst))
	}
	AddFloat32s(dst, m.data)
	return nil
}

// Sub collectively creates a sub-communicator containing the given
// communicator ranks (same list, same order, on every participating rank).
// Ranks not in the list must not call Sub for this group. This is the
// mechanism behind the paper's group-restricted DIMD shuffle ("this could be
// efficiently implemented using the communicator group in MPI").
func (c *Comm) Sub(ranks []int) (*Comm, error) {
	if len(ranks) == 0 {
		return nil, errors.New("mpi: empty sub-communicator")
	}
	global := make([]int, len(ranks))
	seen := make(map[int]bool, len(ranks))
	inGroup := false
	for i, r := range ranks {
		if r < 0 || r >= len(c.group) {
			return nil, fmt.Errorf("mpi: sub rank %d out of range (size %d)", r, len(c.group))
		}
		if seen[r] {
			return nil, fmt.Errorf("mpi: duplicate rank %d in sub-communicator", r)
		}
		seen[r] = true
		global[i] = c.group[r]
		if r == c.rank {
			inGroup = true
		}
	}
	if !inGroup {
		return nil, fmt.Errorf("mpi: calling rank %d not in sub-communicator %v", c.rank, ranks)
	}
	// Context derivation must be deterministic and identical on all members:
	// hash the parent context and the member list.
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], c.ctx)
	h.Write(buf[:])
	for _, g := range global {
		binary.LittleEndian.PutUint64(buf[:], uint64(g)+1)
		h.Write(buf[:])
	}
	ctx := h.Sum64()
	return newComm(c.tr, c.group[c.rank], global, ctx)
}

// Float32sToBytes encodes a float32 slice little-endian.
func Float32sToBytes(src []float32) []byte {
	b := make([]byte, 4*len(src))
	EncodeFloat32s(b, src)
	return b
}

// hostLittleEndian reports whether a float32 in this machine's memory
// already has the wire's byte order, decided once: the codec below is then a
// memmove, and a received payload can be summed where it lies.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatBytes views f's storage as bytes (any host, any alignment: bytes have
// none).
func floatBytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 4*len(f))
}

// EncodeFloat32s encodes src into dst, which must be at least 4*len(src):
// one copy on a little-endian host — byte conversion must not become the
// bottleneck of the pooled communication path — and element by element
// elsewhere (the wire format is little-endian float32 either way).
func EncodeFloat32s(dst []byte, src []float32) {
	if hostLittleEndian {
		copy(dst[:4*len(src)], floatBytes(src))
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// BytesToFloat32s decodes a little-endian float32 slice.
func BytesToFloat32s(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("mpi: float payload length %d not a multiple of 4", len(b))
	}
	out := make([]float32, len(b)/4)
	DecodeFloat32s(out, b)
	return out, nil
}

// readChunk is the most ReadN allocates ahead of the bytes it has received.
const readChunk = 1 << 16

// ReadN reads exactly n bytes. n comes from a length field nobody has
// vouched for — a checkpoint's, a DIMD pack's — so the buffer starts at no
// more than readChunk and doubles only once it is full: allocation follows
// the bytes the reader actually supplied, not the bytes the header promised.
func ReadN(r io.Reader, n int64) ([]byte, error) {
	if n < 0 || n > math.MaxInt {
		return nil, fmt.Errorf("mpi: cannot hold %d bytes", n)
	}
	buf := make([]byte, min(n, readChunk))
	for filled := 0; ; {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			return nil, err
		}
		if int64(len(buf)) == n {
			return buf, nil
		}
		filled = len(buf)
		grown := make([]byte, min(n, 2*int64(filled)))
		copy(grown, buf)
		buf = grown
	}
}

// DecodeFloat32s decodes b into dst, which must hold len(b)/4 floats —
// EncodeFloat32s' mirror.
func DecodeFloat32s(dst []float32, b []byte) {
	if hostLittleEndian {
		copy(floatBytes(dst), b[:4*len(dst)])
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// AddFloat32s adds the little-endian float32 payload b into dst element by
// element — decode-then-add without the decoded copy. len(b) must be
// 4*len(dst). On a little-endian host the payload is summed where it lies,
// through a []float32 view of the bytes, when it starts on a 4-byte boundary
// (every pool or make buffer does at offset 0; some GOARCHes fault on a
// misaligned float load, and this keeps the view within the rules checkptr
// enforces under -race); otherwise each element is decoded and added.
func AddFloat32s(dst []float32, b []byte) {
	if len(b) != 4*len(dst) {
		panic("mpi: AddFloat32s payload is not 4 bytes per destination float")
	}
	if len(dst) == 0 {
		return
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		kernels.AddInto(dst, unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(dst)))
		return
	}
	for i := range dst {
		dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}
