package mpi

// Request is a handle to a non-blocking send. Wait blocks until the send has
// completed and returns its error.
//
// Only sends need one: message delivery is push-based on both transports, so
// a receive posted early would claim nothing a plain Recv at the point of use
// does not, and receives are not posted at all. A send that cannot occupy the
// caller (an in-memory world whose links cost no time) completes inside Isend
// and returns the shared completed Request, allocating nothing; a charged,
// straggling or TCP send runs on a goroutine and closes done.
type Request struct {
	done chan struct{} // nil: completed inside Isend
	err  error
}

// completedSend is the shared Request of every send that finished inline
// without error. It is immutable.
var completedSend = &Request{}

// Wait blocks until the send completes.
func (r *Request) Wait() error {
	if r.done != nil {
		<-r.done
	}
	return r.err
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
// until Wait returns (as in MPI). Where a send cannot occupy the caller
// (memTransport.inline) it completes here — data is copied immediately — and
// the returned Request is the shared completed one.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	if c.mem != nil && c.mem.inline {
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
