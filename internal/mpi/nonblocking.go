package mpi

import "sync"

// Request is a handle to a non-blocking send. Wait blocks until the send has
// completed and returns its error.
//
// Only sends need one: message delivery is push-based on both transports, so
// a receive posted early would claim nothing a plain Recv at the point of use
// does not, and receives are not posted at all. A send that cannot occupy the
// caller (an in-memory world whose links cost no time) completes inside Isend
// and returns the shared completed Request, allocating nothing; a charged,
// straggling or TCP send is queued on its destination's sender (outbox), and
// its Request goes back to that sender's table at the first Wait. A later Wait
// returns the same error until an Isend to that destination reuses it.
type Request struct {
	done   chan struct{} // nil: completed inside Isend; else signalled once per send
	err    error
	free   chan *Request // the table the first Wait returns it to
	waited bool
	ctx    uint64
	tag    int
	data   []byte
}

// completedSend is the shared Request of every send that finished inline
// without error. It is immutable.
var completedSend = &Request{}

// Wait blocks until the send completes.
func (r *Request) Wait() error {
	if r.done == nil || r.waited {
		return r.err
	}
	<-r.done
	r.waited = true
	err := r.err
	select {
	case r.free <- r:
	default:
	}
	return err
}

// TryRecv is the non-blocking counterpart of Recv: ok reports whether a
// matching message (or a terminal transport error) was available. Pollers —
// the heartbeat monitor above all — use it to watch many peers without ever
// blocking on one.
func (c *Comm) TryRecv(src, tag int) ([]byte, bool, error) {
	if err := c.checkRecv(src); err != nil {
		return nil, true, err
	}
	return c.tr.TryRecv(c.group[src], c.ctx, tag)
}

// Isend starts a non-blocking send. The data buffer must not be modified
// until Wait returns (as in MPI). Sends to one destination leave in the order
// they were issued; the transport decides whether the send completes here
// (Transport.Isend).
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	if err := c.checkSend(dst, tag); err != nil {
		return &Request{err: err}
	}
	return c.tr.Isend(c.group[dst], c.ctx, tag, data)
}

// WaitAll waits for every request, returning the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// outbox runs the Isends a transport cannot complete inline on one long-lived
// sender per (transport, destination) — MPI's persistent request, not a
// goroutine per message: FIFO per destination, destinations concurrent.
type outbox struct {
	mu       sync.Mutex
	senders  map[outKey]sender
	closed   bool
	queueing sync.WaitGroup // Isends past the closed check, not yet queued
	wg       sync.WaitGroup // the senders
}

type outKey struct {
	tr  Transport
	dst int
}

// sender is one destination's queue and its table of waited Requests.
type sender struct{ queue, free chan *Request }

// senderDepth bounds a destination's queue, and so its table: a Stream has at
// most MaxInFlight buckets in flight with one send each per peer, well below
// it, and a deeper burst waits in Isend until the sender catches up.
const senderDepth = 64

func (o *outbox) isend(tr Transport, dst int, ctx uint64, tag int, data []byte) *Request {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return &Request{err: ErrClosed}
	}
	s, ok := o.senders[outKey{tr, dst}]
	if !ok {
		s = sender{make(chan *Request, senderDepth), make(chan *Request, senderDepth)}
		if o.senders == nil {
			o.senders = make(map[outKey]sender)
		}
		o.senders[outKey{tr, dst}] = s
		o.wg.Add(1)
		go s.run(tr, dst, &o.wg)
	}
	o.queueing.Add(1)
	o.mu.Unlock()
	var r *Request
	select {
	case r = <-s.free:
	default:
		r = &Request{done: make(chan struct{}, 1), free: s.free}
	}
	r.ctx, r.tag, r.data, r.err, r.waited = ctx, tag, data, nil, false
	s.queue <- r
	o.queueing.Done()
	return r
}

// run sends the queue in order until the outbox closes it.
func (s sender) run(tr Transport, dst int, wg *sync.WaitGroup) {
	defer wg.Done()
	for r := range s.queue {
		r.err = tr.Send(dst, r.ctx, r.tag, r.data)
		r.data = nil
		r.done <- struct{}{}
	}
}

// close stops every sender once it has sent what was queued, and returns
// when their goroutines have ended; later Isends fail with ErrClosed.
func (o *outbox) close() {
	o.mu.Lock()
	closing := !o.closed
	o.closed = true
	o.mu.Unlock()
	if closing {
		o.queueing.Wait()
		for _, s := range o.senders {
			close(s.queue)
		}
	}
	o.wg.Wait()
}
