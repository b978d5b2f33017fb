package mpi

import (
	"errors"
	"fmt"
	"testing"
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
// (plain world) or on the request's goroutine (a charged link).
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
