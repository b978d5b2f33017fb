package mpi

import (
	"testing"
	"time"
)

func TestLinkProfileDelay(t *testing.T) {
	p := LinkProfile{Latency: time.Millisecond, BytesPerSec: 1000}
	if d := p.Delay(0); d != time.Millisecond {
		t.Fatalf("zero-byte delay %v", d)
	}
	if d := p.Delay(1000); d != time.Millisecond+time.Second {
		t.Fatalf("1000-byte delay %v", d)
	}
	var zero LinkProfile
	if d := zero.Delay(1 << 20); d != 0 {
		t.Fatalf("zero profile delay %v", d)
	}
}

// TestLatencyWorldChargesSends: a blocking send across a delayed link takes
// at least the configured latency, and payloads still arrive intact.
func TestLatencyWorldChargesSends(t *testing.T) {
	const lat = 20 * time.Millisecond
	w := NewLatencyWorld(2, LinkProfile{Latency: lat})
	defer w.Close()
	start := time.Now()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("ping"))
		}
		b, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(b) != "ping" {
			t.Errorf("payload %q", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < lat {
		t.Fatalf("round completed in %v, latency %v not charged", el, lat)
	}
}

// TestLatencyWorldIsendOverlaps: the delay of a non-blocking send is paid on
// the request goroutine — the sender's critical path stays free, which is
// the property the reactive pipeline exploits to hide communication.
func TestLatencyWorldIsendOverlaps(t *testing.T) {
	const lat = 50 * time.Millisecond
	w := NewLatencyWorld(2, LinkProfile{Latency: lat})
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			start := time.Now()
			req := c.Isend(1, 5, []byte("ping"))
			if el := time.Since(start); el >= lat {
				t.Errorf("Isend blocked %v, should return immediately", el)
			}
			return req.Wait()
		}
		_, err := c.Recv(0, 5)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLatencyWorldCountsTraffic: a latency world is the topology world with
// one rank per node, so every sent byte is inter-node traffic.
func TestLatencyWorldCountsTraffic(t *testing.T) {
	w := NewLatencyWorld(2, LinkProfile{Latency: time.Microsecond})
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("ping"))
		}
		_, err := c.Recv(0, 5)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Traffic(); got != (Traffic{InterBytes: 4}) {
		t.Fatalf("traffic %+v, want 4 inter-node bytes", got)
	}
}
