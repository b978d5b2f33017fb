package mpi

import (
	"fmt"
	"testing"
)

func TestIsendIrecv(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			r1 := c.Isend(1, 1, []byte("a"))
			r2 := c.Isend(1, 2, []byte("b"))
			return WaitAll(r1, r2)
		}
		// Post receives before looking at either: out-of-order completion.
		r2 := c.Irecv(0, 2)
		r1 := c.Irecv(0, 1)
		b2, err := r2.Wait()
		if err != nil {
			return err
		}
		b1, err := r1.Wait()
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

func TestRequestTest(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Send(1, 5, []byte("x"))
		}
		r := c.Irecv(0, 5)
		if r.Test() {
			return fmt.Errorf("request complete before send")
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		if !r.Test() {
			return fmt.Errorf("request not complete after Wait")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
