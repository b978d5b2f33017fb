package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"
)

// Two Isends under different tags are matched by tag, not by arrival order:
// the receiver takes the second first.
func TestIsendMatchedByTag(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			r1 := c.Isend(1, 1, []byte("a"))
			r2 := c.Isend(1, 2, []byte("b"))
			return WaitAll(r1, r2)
		}
		b2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		b1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(b1) != "a" || string(b2) != "b" {
			return fmt.Errorf("got %q %q", b1, b2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A failed send surfaces from Wait and WaitAll whichever way it ran: inline
// (plain world) or on the destination's sender (a charged link).
func TestIsendErrorSurfacesFromWait(t *testing.T) {
	for _, w := range []*World{NewWorld(2), NewLatencyWorld(2, LinkProfile{Latency: 1})} {
		c0 := w.MustComm(0)
		w.Crash(1)
		r := c0.Isend(1, 3, []byte("x"))
		if (r.done == nil) != c0.mem.inline {
			t.Fatalf("inline=%v world ran its Isend with done=%v", c0.mem.inline, r.done)
		}
		if err := r.Wait(); !errors.Is(err, ErrRankDown) {
			t.Fatalf("Wait after a send to a dead rank: %v, want ErrRankDown", err)
		}
		if err := WaitAll(completedSend, r); !errors.Is(err, ErrRankDown) {
			t.Fatalf("WaitAll: %v, want ErrRankDown", err)
		}
		w.Close()
	}
}

// Isends to one destination leave in the order they were made: 64 of them
// under one tag arrive in that order, over a charged link and over TCP
// loopback, where each goes through the destination's one sender.
func TestIsendKeepsOrderPerDestination(t *testing.T) {
	const sends = 64
	order := func(c *Comm) error {
		if c.Rank() == 0 {
			reqs := make([]*Request, sends)
			for i := range reqs {
				reqs[i] = c.Isend(1, 4, binary.LittleEndian.AppendUint32(nil, uint32(i)))
			}
			return WaitAll(reqs...)
		}
		for i := 0; i < sends; i++ {
			b, err := c.Recv(0, 4)
			if err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint32(b); got != uint32(i) {
				return fmt.Errorf("message %d arrived as number %d", got, i)
			}
			PutBytes(b)
		}
		return nil
	}
	t.Run("charged", func(t *testing.T) {
		w := NewLatencyWorld(2, LinkProfile{Latency: 20 * time.Microsecond})
		defer w.Close()
		if err := w.Run(order); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("TCP", func(t *testing.T) {
		runTCP(t, startTCPCluster(t, 2), order)
	})
}

// A warmed charged Isend + Wait allocates nothing: the sender is long-lived
// and the Request comes back to its table on Wait.
func TestChargedIsendAllocatesNothing(t *testing.T) {
	w := NewLatencyWorld(2, LinkProfile{Latency: time.Microsecond})
	defer w.Close()
	c0, c1 := w.MustComm(0), w.MustComm(1)
	data := make([]byte, 256)
	round := func() {
		if err := c0.Isend(1, 6, data).Wait(); err != nil {
			t.Fatal(err)
		}
		b, err := c1.Recv(0, 6)
		if err != nil {
			t.Fatal(err)
		}
		PutBytes(b)
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a charged Isend+Wait allocates %.1f times, want 0", allocs)
	}
}
