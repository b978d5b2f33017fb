package mpi

import "fmt"

// Request is a handle to an in-flight non-blocking operation. Wait blocks
// until completion and returns the received payload (nil for sends).
//
// Three completion modes keep the hot path allocation-free:
//
//   - completed: the operation finished inside Isend (buffered transports
//     never block on send), so the returned Request is a shared immutable
//     singleton — zero allocations.
//   - lazy: Irecv records the (source, tag) match and defers the blocking
//     mailbox get to Wait. Message delivery is push-based on every
//     transport, so deferring the get is observationally identical to the
//     old eager goroutine — minus the goroutine, channel and closure.
//   - async: transports whose Send occupies the caller (latency-injected,
//     TCP) still get a goroutine and a done channel.
//
// A lazy/completed Request must be driven from one goroutine (Wait/Test are
// not synchronized in those modes); handing the request between goroutines
// through a channel is fine, concurrent use is not.
type Request struct {
	done chan struct{} // async mode; nil otherwise
	c    *Comm         // lazy mode: pending receive target
	src  int
	tag  int
	lazy bool
	data []byte
	err  error
}

// completedSend is the shared pre-completed Request returned for sends that
// finished inline. It is immutable and must never be Released into the
// freelist.
var completedSend = &Request{}

// reqFree recycles lazy-receive Requests; Release is called only by owners
// that are done with the handle (see Stream), so a freelist is safe.
var reqFree = make(chan *Request, 512)

// Wait blocks until the operation completes.
func (r *Request) Wait() ([]byte, error) {
	if r.done != nil {
		<-r.done
		return r.data, r.err
	}
	if r.lazy {
		r.data, r.err = r.c.Recv(r.src, r.tag)
		r.lazy = false
	}
	return r.data, r.err
}

// Test reports whether the operation has completed without blocking. On a
// pending receive it polls the transport; a matched message is consumed and
// then returned by Wait.
func (r *Request) Test() bool {
	if r.done != nil {
		select {
		case <-r.done:
			return true
		default:
			return false
		}
	}
	if !r.lazy {
		return true
	}
	b, ok, err := r.c.TryRecv(r.src, r.tag)
	if !ok {
		return false
	}
	r.data, r.err = b, err
	r.lazy = false
	return true
}

// Release recycles a finished Request. The caller must hold the only
// reference and must not touch the Request afterwards; the payload returned
// by Wait is unaffected (release that separately with PutBytes). Releasing
// is optional — dropped Requests are simply garbage collected.
func (r *Request) Release() {
	if r == completedSend || r.done != nil {
		return // singletons and channel-backed requests don't recycle
	}
	*r = Request{}
	select {
	case reqFree <- r:
	default:
	}
}

// TryRecv is the non-blocking counterpart of Recv: ok reports whether a
// matching message (or a terminal transport error) was available. Pollers —
// the heartbeat monitor above all — use it to watch many peers without ever
// blocking on one.
func (c *Comm) TryRecv(src, tag int) ([]byte, bool, error) {
	if src < 0 || src >= len(c.group) {
		return nil, true, fmt.Errorf("mpi: recv from invalid rank %d (size %d)", src, len(c.group))
	}
	return c.tr.TryRecv(c.group[src], c.ctx, tag)
}

// Isend starts a non-blocking send. The data buffer must not be modified
// until Wait returns (as in MPI). On buffered transports the send completes
// inline — data is copied immediately — and the returned Request is a shared
// completed singleton.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	if nb, ok := c.tr.(nonBlockingSender); ok && nb.sendNeverBlocks() {
		if err := c.Send(dst, tag, data); err != nil {
			return &Request{err: err}
		}
		return completedSend
	}
	r := &Request{done: make(chan struct{})}
	go func() {
		r.err = c.Send(dst, tag, data)
		close(r.done)
	}()
	return r
}

// Irecv starts a non-blocking receive matching (src, tag). The receive is
// lazy — the matching message is claimed at Wait/Test — which is equivalent
// under push-based delivery and costs no goroutine.
func (c *Comm) Irecv(src, tag int) *Request {
	var r *Request
	select {
	case r = <-reqFree:
	default:
		r = &Request{}
	}
	r.c, r.src, r.tag, r.lazy = c, src, tag, true
	return r
}

// WaitAll waits for every request, returning the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
