package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		got, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvTagMatching(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tags out of order; receiver matches by tag.
			if err := c.Send(1, 2, []byte("two")); err != nil {
				return err
			}
			return c.Send(1, 1, []byte("one"))
		}
		one, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		two, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(one) != "one" || string(two) != "two" {
			return fmt.Errorf("tag matching failed: %q %q", one, two)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOrderPreservedPerTag(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	const n = 100
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if got[0] != byte(i) {
				return fmt.Errorf("message %d out of order: got %d", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendDoesNotAliasCallerBuffer(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the delivered message
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		got, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if got[0] != 1 {
			return fmt.Errorf("message aliased sender buffer: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c := w.MustComm(0)
	if err := c.Send(5, 0, nil); err == nil {
		t.Fatal("send to rank 5 of 2 should error")
	}
	if _, err := c.Recv(-1, 0); err == nil {
		t.Fatal("recv from rank -1 should error")
	}
	if err := c.Send(1, -3, nil); err == nil {
		t.Fatal("negative tag should error")
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	w := NewWorld(1)
	c := w.MustComm(0)
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(0, 9)
		done <- err
	}()
	w.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestBarrierAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		w := NewWorld(n)
		var mu sync.Mutex
		arrived := 0
		err := w.Run(func(c *Comm) error {
			mu.Lock()
			arrived++
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if arrived != n {
				return fmt.Errorf("rank %d passed barrier with only %d/%d arrived", c.Rank(), arrived, n)
			}
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		for root := 0; root < n; root++ {
			w := NewWorld(n)
			payload := []byte(fmt.Sprintf("payload-from-%d", root))
			err := w.Run(func(c *Comm) error {
				var data []byte
				if c.Rank() == root {
					data = payload
				}
				got, err := c.Bcast(root, data)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), got)
				}
				return nil
			})
			w.Close()
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestAllGatherVariedSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6} {
		w := NewWorld(n)
		err := w.Run(func(c *Comm) error {
			// Payload size varies by rank to exercise the V-ness.
			data := bytes.Repeat([]byte{byte(c.Rank() + 1)}, c.Rank()+1)
			got, err := c.AllGather(data)
			if err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				want := bytes.Repeat([]byte{byte(r + 1)}, r+1)
				if !bytes.Equal(got[r], want) {
					return fmt.Errorf("rank %d allgather[%d] = %v, want %v", c.Rank(), r, got[r], want)
				}
			}
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAllToAllV(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		w := NewWorld(n)
		err := w.Run(func(c *Comm) error {
			send := make([][]byte, n)
			for dst := 0; dst < n; dst++ {
				// Distinct, size-varying payload per (src,dst) pair.
				send[dst] = bytes.Repeat([]byte{byte(10*c.Rank() + dst)}, c.Rank()+dst+1)
			}
			got, err := c.AllToAllV(send)
			if err != nil {
				return err
			}
			for src := 0; src < n; src++ {
				want := bytes.Repeat([]byte{byte(10*src + c.Rank())}, src+c.Rank()+1)
				if !bytes.Equal(got[src], want) {
					return fmt.Errorf("rank %d from %d: %v, want %v", c.Rank(), src, got[src], want)
				}
			}
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAllToAllVWrongBufferCount(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c := w.MustComm(0)
	if _, err := c.AllToAllV(make([][]byte, 3)); err == nil {
		t.Fatal("wrong send buffer count should error")
	}
}

func TestSubCommunicator(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	defer w.Close()
	// Split into two groups {0,2,4} and {1,3,5}; each runs its own
	// collectives on the same tags at the same time.
	err := w.Run(func(c *Comm) error {
		var ranks []int
		if c.Rank()%2 == 0 {
			ranks = []int{0, 2, 4}
		} else {
			ranks = []int{1, 3, 5}
		}
		sub, err := c.Sub(ranks)
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		// Sub rank i is parent rank ranks[i].
		all, err := sub.AllGather([]byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		for i, r := range ranks {
			if !bytes.Equal(all[i], []byte{byte(r)}) {
				return fmt.Errorf("rank %d: sub allgather[%d] = %v, want [%d]", c.Rank(), i, all[i], r)
			}
		}
		var root []byte
		if sub.Rank() == 1 {
			root = []byte{byte(c.Rank())}
		}
		got, err := sub.Bcast(1, root)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, []byte{byte(ranks[1])}) {
			return fmt.Errorf("rank %d: sub bcast %v, want [%d]", c.Rank(), got, ranks[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubCommunicatorIsolation(t *testing.T) {
	// Messages in a sub-communicator must not be visible to the parent
	// context even with identical tags and peers.
	w := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		sub, err := c.Sub([]int{0, 1})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := sub.Send(1, 3, []byte("sub")); err != nil {
				return err
			}
			return c.Send(1, 3, []byte("parent"))
		}
		fromParent, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		fromSub, err := sub.Recv(0, 3)
		if err != nil {
			return err
		}
		if string(fromParent) != "parent" || string(fromSub) != "sub" {
			return fmt.Errorf("context leak: parent=%q sub=%q", fromParent, fromSub)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubErrors(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	c := w.MustComm(0)
	if _, err := c.Sub(nil); err == nil {
		t.Fatal("empty sub should error")
	}
	if _, err := c.Sub([]int{0, 0}); err == nil {
		t.Fatal("duplicate ranks should error")
	}
	if _, err := c.Sub([]int{1, 2}); err == nil {
		t.Fatal("sub not containing caller should error")
	}
	if _, err := c.Sub([]int{0, 7}); err == nil {
		t.Fatal("out-of-range rank should error")
	}
}

func TestFloat32BytesRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		b := Float32sToBytes(vals)
		got, err := BytesToFloat32s(b)
		if err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// Compare bit patterns so NaNs round-trip too.
			if Float32sToBytes(vals[i : i+1])[0] != Float32sToBytes(got[i : i+1])[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := BytesToFloat32s([]byte{1, 2, 3}); err == nil {
		t.Fatal("non-multiple-of-4 should error")
	}
}

func TestWorldRunPropagatesError(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	sentinel := fmt.Errorf("boom")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("got %v, want sentinel", err)
	}
}
