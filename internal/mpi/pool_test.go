package mpi

import (
	"bytes"
	"fmt"
	"testing"
)

func TestPoolClassing(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 4096, 100000} {
		b := GetBytes(n)
		if len(b) != n {
			t.Fatalf("GetBytes(%d) len = %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 || c < n {
			t.Fatalf("GetBytes(%d) cap = %d, want power of two >= n", n, c)
		}
		PutBytes(b)
		f := GetFloats(n)
		if len(f) != n {
			t.Fatalf("GetFloats(%d) len = %d", n, len(f))
		}
		PutFloats(f)
	}
	if GetBytes(0) != nil || GetFloats(0) != nil {
		t.Fatal("zero-size gets should be nil")
	}
	// Foreign-capacity buffers are dropped, never corrupting a class.
	PutBytes(make([]byte, 100))
	PutFloats(make([]float32, 100))
	// Over-max sizes fall through to plain make and are likewise dropped.
	huge := GetBytes(1 << 25)
	if len(huge) != 1<<25 {
		t.Fatalf("oversize GetBytes len = %d", len(huge))
	}
	PutBytes(huge)
}

func TestPoolRecyclesBacking(t *testing.T) {
	b := GetBytes(3000)
	b[0] = 42
	PutBytes(b)
	// Same class must hand the same backing array straight back (the
	// freelist is FIFO per class; nothing else is releasing concurrently).
	for i := 0; i < poolSlots(poolClass(3000))+1; i++ {
		nb := GetBytes(3000)
		if &nb[0] == &b[0] {
			return
		}
		// keep draining; buffers from other tests may sit in the class
	}
	t.Fatal("released buffer never came back out of its class")
}

func TestGetFloatsZeroed(t *testing.T) {
	f := GetFloats(512)
	for i := range f {
		f[i] = float32(i) + 1
	}
	PutFloats(f)
	z := GetFloatsZeroed(512)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetFloatsZeroed[%d] = %v", i, v)
		}
	}
	PutFloats(z)
}

// Send must copy before returning: mutating the buffer immediately after
// Send must not corrupt the delivered message (and -race must not flag the
// mutation against the transport's copy).
func TestSendThenMutateIsSafe(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		const rounds = 200
		if c.Rank() == 0 {
			buf := make([]byte, 256)
			for r := 0; r < rounds; r++ {
				for i := range buf {
					buf[i] = byte(r)
				}
				if err := c.Send(1, 7, buf); err != nil {
					return err
				}
				// Immediately reuse the buffer for the next round's payload:
				// only safe because Send copies.
				for i := range buf {
					buf[i] = 0xFF
				}
			}
			return nil
		}
		for r := 0; r < rounds; r++ {
			b, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			for i := range b {
				if b[i] != byte(r) {
					return fmt.Errorf("round %d: byte %d = %d (sender mutation leaked)", r, i, b[i])
				}
			}
			PutBytes(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// SendOwned hands the pooled buffer itself to the receiver; the receiver
// releases it and the sender re-Gets buffers from the same pool. Under
// -race, any aliasing bug (sender touching a handed-off buffer, double
// release, recycled buffer with two owners) surfaces as a race or a payload
// mismatch.
func TestSendOwnedRecvReleaseReuse(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		const rounds = 500
		peer := 1 - c.Rank()
		errs := make(chan error, 2)
		go func() { // sender half
			for r := 0; r < rounds; r++ {
				b := GetBytes(1024)
				for i := range b {
					b[i] = byte(r + c.Rank())
				}
				if err := c.SendOwned(peer, 9, b); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
		go func() { // receiver half
			for r := 0; r < rounds; r++ {
				b, err := c.Recv(peer, 9)
				if err != nil {
					errs <- err
					return
				}
				for i := range b {
					if b[i] != byte(r+peer) {
						errs <- fmt.Errorf("round %d: got %d, want %d (ownership violated)", r, b[i], byte(r+peer))
						return
					}
				}
				PutBytes(b)
			}
			errs <- nil
		}()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The same ownership discipline must hold over the TCP transport, where
// SendOwned serializes into a pooled frame and releases the payload, and the
// read loop hands out pooled buffers the receiver releases.
func TestSendOwnedOverTCP(t *testing.T) {
	worlds := make([]*TCPWorld, 2)
	addrs := make([]string, 2)
	for r := range worlds {
		w, err := NewTCPWorld(r, []string{"127.0.0.1:0", "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		worlds[r] = w
		addrs[r] = w.Addr()
	}
	for _, w := range worlds {
		w.SetAddrs(addrs)
	}
	errs := make(chan error, 2)
	for r := range worlds {
		go func(rank int) {
			c, err := worlds[rank].Comm()
			if err != nil {
				errs <- err
				return
			}
			const rounds = 100
			peer := 1 - rank
			vals := make([]float32, 300)
			for round := 0; round < rounds; round++ {
				for i := range vals {
					vals[i] = float32(round*1000 + rank)
				}
				if err := c.SendFloats(peer, 3, vals); err != nil {
					errs <- err
					return
				}
				got := make([]float32, 300)
				if err := c.RecvFloatsInto(got, peer, 3); err != nil {
					errs <- err
					return
				}
				for i, v := range got {
					if v != float32(round*1000+peer) {
						errs <- fmt.Errorf("rank %d round %d elem %d = %v", rank, round, i, v)
						return
					}
				}
				// Raw owned bytes too: pooled buffer out, release on receipt.
				b := GetBytes(64)
				for i := range b {
					b[i] = byte(round)
				}
				if err := c.SendOwned(peer, 4, b); err != nil {
					errs <- err
					return
				}
				rb, err := c.Recv(peer, 4)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(rb, bytes.Repeat([]byte{byte(round)}, 64)) {
					errs <- fmt.Errorf("rank %d round %d owned payload corrupted", rank, round)
					return
				}
				PutBytes(rb)
			}
			errs <- nil
		}(r)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// Isend on the buffered in-process transport completes inline: no goroutine,
// and the returned request is the shared completed one.
func TestIsendInlineOnBufferedTransport(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			r := c.Isend(1, 11, []byte("hi"))
			if r != completedSend {
				return fmt.Errorf("buffered-transport Isend should complete inline")
			}
			return WaitAll(r)
		}
		b, err := c.Recv(0, 11)
		if err != nil {
			return err
		}
		if string(b) != "hi" {
			return fmt.Errorf("got %q", b)
		}
		PutBytes(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The pooled path must be allocation-free in steady state: a send+receive
// round trip through the mailbox reuses the same buffers every time.
func TestSendRecvSteadyStateAllocFree(t *testing.T) {
	w := NewWorld(1)
	defer w.Close()
	c := w.MustComm(0)
	vals := make([]float32, 2048)
	got := make([]float32, 2048)
	// Warm the pools and the mailbox queue.
	for i := 0; i < 4; i++ {
		if err := c.SendFloats(0, 13, vals); err != nil {
			t.Fatal(err)
		}
		if err := c.RecvFloatsInto(got, 0, 13); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.SendFloats(0, 13, vals); err != nil {
			t.Fatal(err)
		}
		if err := c.RecvFloatsInto(got, 0, 13); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state SendFloats+RecvFloatsInto allocates %.1f times per round trip, want 0", allocs)
	}
}
