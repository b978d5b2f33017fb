package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPWorld connects ranks over TCP sockets, one listener per rank, for runs
// where each learner is a separate OS process (or to exercise a real network
// stack under the collectives). Frames are length-prefixed:
// [src:4][ctx:8][tag:4][len:4][payload].
//
// Failure handling mirrors the in-memory world's three detection channels:
//
//   - A broken outbound connection is retried through a bounded reconnect
//     (exponential backoff with a cap) so a transient socket error is not a
//     crash; only exhausted retries surface, as a typed *RankDownError whose
//     cause is transient (IsReconnecting) unless the peer is already marked
//     down, in which case the send fails fast and confirmed.
//   - With SetDetectTimeout armed, a Recv that sees no matching message
//     within the window presumes the source dead (typed, IsDetectTimeout),
//     and inbound connections idle past twice the window are closed with
//     their last-seen source marked down — a rank that dies BETWEEN frames
//     is detected even when nobody is blocked receiving from it.
//   - MarkDown accepts an external failure verdict (a heartbeat monitor's
//     suspicion): blocked and future receives from the rank fail typed once
//     its delivered frames drain, and sends to it fail fast.
type TCPWorld struct {
	rank      int
	addrs     []string
	listener  net.Listener
	box       *mailbox
	mu        sync.Mutex
	conns     map[int]net.Conn // outbound, keyed by peer rank
	accepted  []net.Conn       // inbound, closed on shutdown
	closeOnce sync.Once
	closed    bool
	wg        sync.WaitGroup
	detect    atomic.Int64 // heartbeat-style Recv deadline in ns; 0 disables
	policy    ReconnectPolicy
	out       outbox // one sender per peer (Isend)
}

// ReconnectPolicy bounds how hard a TCP send tries to revive a broken
// outbound connection before declaring the peer unreachable.
type ReconnectPolicy struct {
	// Attempts is the number of redials after the first failure.
	Attempts int
	// Backoff is the delay before the first redial; it doubles per attempt.
	Backoff time.Duration
	// MaxBackoff caps the doubling.
	MaxBackoff time.Duration
}

// DefaultReconnectPolicy keeps a transient hiccup invisible (~4 redials
// inside half a second) without letting a genuinely dead peer stall sends
// much longer than a failure-detection window.
func DefaultReconnectPolicy() ReconnectPolicy {
	return ReconnectPolicy{Attempts: 4, Backoff: 25 * time.Millisecond, MaxBackoff: 200 * time.Millisecond}
}

const tcpFrameHeader = 4 + 8 + 4 + 4

// maxTCPFrame bounds the payload length a frame header may announce: 1 GiB
// (a 256 Mi-float vector, more than any collective here sends) instead of
// the 4 GiB a uint32 can say. A payload is allocated as its bytes arrive
// (readPayload).
const maxTCPFrame = 1 << 30

// NewTCPWorld creates the transport endpoint for one rank. addrs lists every
// rank's listen address in rank order; addrs[rank] is bound locally. Call
// Close when done.
func NewTCPWorld(rank int, addrs []string) (*TCPWorld, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("mpi: tcp rank %d out of range for %d addrs", rank, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("mpi: tcp listen %s: %w", addrs[rank], err)
	}
	w := &TCPWorld{
		rank:     rank,
		addrs:    append([]string(nil), addrs...),
		listener: ln,
		box:      newMailbox(rank),
		conns:    make(map[int]net.Conn),
		policy:   DefaultReconnectPolicy(),
	}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr returns the bound listen address (useful with ":0" dynamic ports).
func (w *TCPWorld) Addr() string { return w.listener.Addr().String() }

// SetAddrs replaces the peer address table (used after dynamic port
// assignment, before any Send).
func (w *TCPWorld) SetAddrs(addrs []string) { w.addrs = append([]string(nil), addrs...) }

// SetDetectTimeout enables failure detection on the receive path: a Recv
// that sees no matching message within d presumes the source dead, marks it
// down (subsequent receives from it fail fast), and returns a typed
// *RankDownError — and inbound connections idle past 2d are closed with
// their last-seen source marked down. The expected message stream (plus any
// heartbeats riding the same connection) IS the liveness signal. Call
// before Recv; zero disables.
func (w *TCPWorld) SetDetectTimeout(d time.Duration) { w.detect.Store(int64(d)) }

// SetReconnectPolicy overrides the bounded-reconnect behavior of Send.
// Attempts <= 0 disables reconnection (first failure surfaces immediately).
func (w *TCPWorld) SetReconnectPolicy(p ReconnectPolicy) { w.policy = p }

// MarkDown records an external failure verdict for a peer rank — typically
// a heartbeat monitor's suspicion. Blocked receives from the rank wake and
// fail with a typed *RankDownError once its already-delivered frames drain,
// and subsequent sends to it fail fast instead of burning reconnect
// attempts against a dead listener.
func (w *TCPWorld) MarkDown(rank int) {
	if rank == w.rank {
		return
	}
	w.box.markDown(rank)
}

func (w *TCPWorld) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.listener.Accept()
		if err != nil {
			return // listener closed
		}
		w.mu.Lock()
		w.accepted = append(w.accepted, conn)
		w.mu.Unlock()
		w.wg.Add(1)
		go w.readLoop(conn)
	}
}

func (w *TCPWorld) readLoop(conn net.Conn) {
	defer w.wg.Done()
	defer conn.Close()
	var hdr [tcpFrameHeader]byte
	lastSrc := -1
	for {
		// The read deadline is the connection-level failure detector: with
		// detection armed, an inbound connection that carries no frame for
		// two full windows belongs to a peer that died between frames (its
		// heartbeats would otherwise ride this very connection). Mark the
		// last source seen on it down so receivers fail typed instead of
		// blocking forever.
		if d := time.Duration(w.detect.Load()); d > 0 {
			conn.SetReadDeadline(time.Now().Add(2 * d))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && lastSrc >= 0 {
				// Presumptive, not confirmed: silence on an idle connection
				// is strong evidence but the peer may only be stalled. The
				// transient cause lets recovery retry through it; a monitor's
				// MarkDown upgrades it to confirmed.
				w.box.markDownCause(lastSrc, errDetectTimeout)
			}
			return
		}
		src := int(int32(binary.LittleEndian.Uint32(hdr[0:])))
		ctx := binary.LittleEndian.Uint64(hdr[4:])
		tag := int(int32(binary.LittleEndian.Uint32(hdr[12:])))
		n := binary.LittleEndian.Uint32(hdr[16:])
		if src < 0 || src >= len(w.addrs) || n > maxTCPFrame {
			// Not a frame any rank of this world sends: a source nobody
			// receives from would park in the mailbox for ever, and the
			// length is an allocation. The stream cannot be resynchronised,
			// so the connection goes; if a live peer was behind it, its
			// silence surfaces through the detection paths above.
			return
		}
		payload, err := readPayload(conn, int(n))
		if err != nil {
			return
		}
		lastSrc = src
		if w.box.put(msgKey{src: src, ctx: ctx, tag: tag}, message{data: payload}) != nil {
			PutBytes(payload)
			return
		}
	}
}

// readPayload reads an n-byte frame payload as ReadN does — a peer killed
// mid-frame costs what it sent — but from the pool, which recycles it.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := GetBytes(min(n, readChunk))
	for filled := 0; ; {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			PutBytes(buf)
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		filled = len(buf)
		grown := GetBytes(min(n, 2*filled))
		copy(grown, buf)
		PutBytes(buf)
		buf = grown
	}
}

// Comm returns the world communicator for this rank.
func (w *TCPWorld) Comm() (*Comm, error) {
	return newComm(w, w.rank, worldGroup(len(w.addrs)), 1)
}

// ControlComm returns a communicator on the reserved control context,
// isolated from Comm and every Sub derived from it — the out-of-band
// channel heartbeats travel on. Over TCP the control frames share each
// peer's single connection with application traffic, so they double as the
// connection-level liveness signal the read deadline watches.
func (w *TCPWorld) ControlComm() (*Comm, error) {
	return newComm(w, w.rank, worldGroup(len(w.addrs)), controlCtx)
}

// Send implements Transport. A broken connection is redialed under the
// reconnect policy; a peer marked down (by a failure detector or an earlier
// timeout) fails fast with a confirmed *RankDownError, and exhausted
// retries against an unmarked peer fail transient (IsReconnecting) so
// recovery protocols can retry rather than evict.
func (w *TCPWorld) Send(dst int, ctx uint64, tag int, data []byte) error {
	if len(data) > maxTCPFrame {
		return fmt.Errorf("mpi: tcp payload of %d bytes exceeds the %d-byte frame bound", len(data), maxTCPFrame)
	}
	if dst == w.rank {
		cp := GetBytes(len(data))
		copy(cp, data)
		if err := w.box.put(msgKey{src: w.rank, ctx: ctx, tag: tag}, message{data: cp}); err != nil {
			PutBytes(cp)
			return err
		}
		return nil
	}
	if w.box.confirmedDown(dst) {
		return &RankDownError{Rank: dst}
	}
	frame := GetBytes(tcpFrameHeader + len(data))
	binary.LittleEndian.PutUint32(frame[0:], uint32(w.rank))
	binary.LittleEndian.PutUint64(frame[4:], ctx)
	binary.LittleEndian.PutUint32(frame[12:], uint32(tag))
	binary.LittleEndian.PutUint32(frame[16:], uint32(len(data)))
	copy(frame[tcpFrameHeader:], data)
	err := w.writeFrame(dst, frame)
	PutBytes(frame)
	return err
}

// writeFrame delivers one framed message to dst, redialing through the
// reconnect policy on failure.
func (w *TCPWorld) writeFrame(dst int, frame []byte) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.mu.Unlock()
	backoff := w.policy.Backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > w.policy.Attempts {
				break
			}
			time.Sleep(backoff)
			backoff *= 2
			if backoff > w.policy.MaxBackoff && w.policy.MaxBackoff > 0 {
				backoff = w.policy.MaxBackoff
			}
			// A failure verdict may have landed while backing off; stop
			// dialing a peer already known dead.
			if w.box.confirmedDown(dst) {
				return &RankDownError{Rank: dst, Cause: lastErr}
			}
		}
		conn, err := w.conn(dst)
		if err != nil {
			lastErr = err
			continue
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return ErrClosed
		}
		_, err = conn.Write(frame)
		w.mu.Unlock()
		if err == nil {
			return nil
		}
		lastErr = err
		w.dropConn(dst, conn)
	}
	if w.box.confirmedDown(dst) {
		return &RankDownError{Rank: dst, Cause: lastErr}
	}
	return &RankDownError{Rank: dst, Cause: fmt.Errorf("tcp send after %d attempts: %w (last: %v)", w.policy.Attempts+1, errReconnecting, lastErr)}
}

// SendOwned implements Transport: over TCP the buffer is serialized into the
// frame and then released to the pool (self-sends deliver it directly).
func (w *TCPWorld) SendOwned(dst int, ctx uint64, tag int, data []byte) error {
	if dst == w.rank {
		if err := w.box.put(msgKey{src: w.rank, ctx: ctx, tag: tag}, message{data: data}); err != nil {
			PutBytes(data)
			return err
		}
		return nil
	}
	err := w.Send(dst, ctx, tag, data)
	PutBytes(data)
	return err
}

func (w *TCPWorld) conn(dst int) (net.Conn, error) {
	w.mu.Lock()
	if c, ok := w.conns[dst]; ok {
		w.mu.Unlock()
		return c, nil
	}
	addr := w.addrs[dst]
	w.mu.Unlock()
	// Dial outside the lock: a slow or dead peer must not stall sends to
	// every other rank.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp dial %s: %w", addr, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		c.Close()
		return nil, ErrClosed
	}
	if existing, ok := w.conns[dst]; ok {
		// Lost the dial race; keep the established connection so frames
		// stay ordered on a single stream.
		c.Close()
		return existing, nil
	}
	w.conns[dst] = c
	return c, nil
}

// dropConn discards a broken outbound connection so the next attempt
// redials (only if it is still the registered one — a concurrent sender may
// already have replaced it).
func (w *TCPWorld) dropConn(dst int, c net.Conn) {
	w.mu.Lock()
	if w.conns[dst] == c {
		delete(w.conns, dst)
	}
	w.mu.Unlock()
	c.Close()
}

// Recv implements Transport. With a detection timeout set, a silent source
// is presumed dead: the Recv returns a *RankDownError and the source is
// marked down so later receives fail without waiting out the timeout again.
func (w *TCPWorld) Recv(src int, ctx uint64, tag int) ([]byte, error) {
	m, _, err := w.box.wait(msgKey{src: src, ctx: ctx, tag: tag}, true, time.Duration(w.detect.Load()))
	if errors.Is(err, errDetectTimeout) {
		// Keep the marking presumptive: later receives fail fast but stay
		// transient-typed (IsDetectTimeout), so a recovery protocol waiting
		// on a slow-but-live peer retries instead of evicting it.
		w.box.markDownCause(src, errDetectTimeout)
	}
	return m.data, err
}

// Isend implements Transport: the send is queued on the sender for dst.
func (w *TCPWorld) Isend(dst int, ctx uint64, tag int, data []byte) *Request {
	return w.out.isend(w, dst, ctx, tag, data)
}

// TryRecv implements Transport.
func (w *TCPWorld) TryRecv(src int, ctx uint64, tag int) ([]byte, bool, error) {
	m, ok, err := w.box.wait(msgKey{src: src, ctx: ctx, tag: tag}, false, 0)
	return m.data, ok, err
}

// NumRanks implements Transport.
func (w *TCPWorld) NumRanks() int { return len(w.addrs) }

// Close shuts down the listener and all connections; pending receives
// return ErrClosed. It returns once the senders (Isend) have stopped.
func (w *TCPWorld) Close() error {
	w.closeOnce.Do(func() {
		w.listener.Close()
		w.mu.Lock()
		w.closed = true
		for _, c := range w.conns {
			c.Close()
		}
		// Accepted (inbound) connections must be closed too: their read
		// loops otherwise block in ReadFull until the remote side closes,
		// which may be waiting on us — a shutdown deadlock.
		for _, c := range w.accepted {
			c.Close()
		}
		w.mu.Unlock()
		w.box.close()
		w.out.close()
		w.wg.Wait()
	})
	return nil
}
