package mpi

import (
	"testing"
	"time"
)

func TestUniformTopologyLayout(t *testing.T) {
	topo := UniformTopology(8, 4)
	if err := topo.Validate(8); err != nil {
		t.Fatal(err)
	}
	if got := topo.Nodes(); got != 2 {
		t.Fatalf("Nodes() = %d, want 2", got)
	}
	if got := topo.NodeBounds(); len(got) != 3 || got[0] != 0 || got[1] != 4 || got[2] != 8 {
		t.Fatalf("NodeBounds() = %v, want [0 4 8]", got)
	}
	if got := topo.Leaders(); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("Leaders() = %v, want [0 4]", got)
	}
	// Ragged tail: 7 ranks at 3 per node → nodes of 3, 3, 1.
	ragged := UniformTopology(7, 3)
	if err := ragged.Validate(7); err != nil {
		t.Fatal(err)
	}
	if got := ragged.Nodes(); got != 3 {
		t.Fatalf("ragged Nodes() = %d, want 3", got)
	}
	if got := ragged.Leaders(); len(got) != 3 || got[2] != 6 {
		t.Fatalf("ragged Leaders() = %v, want [0 3 6]", got)
	}
}

func TestTopologyValidateRejectsBadLayouts(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
		size int
	}{
		{"size mismatch", Topology{Node: []int{0, 0}}, 3},
		{"first node nonzero", Topology{Node: []int{1, 1}}, 2},
		{"decreasing", Topology{Node: []int{0, 1, 0}}, 3},
		{"gap", Topology{Node: []int{0, 0, 2}}, 3},
	}
	for _, tc := range cases {
		if err := tc.topo.Validate(tc.size); err == nil {
			t.Errorf("%s: Validate accepted %v", tc.name, tc.topo.Node)
		}
	}
	if (Topology{}).IsSet() {
		t.Error("zero topology reports IsSet")
	}
}

// TestTopologyWorldCountsTraffic pins the per-link-class byte accounting:
// an intra-node message lands in IntraBytes, a cross-node one in
// InterBytes, with exact sizes (zero link profiles: counting must not
// require paying wall time).
func TestTopologyWorldCountsTraffic(t *testing.T) {
	topo := UniformTopology(4, 2)
	w, err := NewTopologyWorld(4, topo, LinkProfile{}, LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0: // intra: node 0 → node 0
			if err := c.Send(1, 1, make([]byte, 100)); err != nil {
				return err
			}
			return c.Send(2, 2, make([]byte, 7)) // inter: node 0 → node 1
		case 1:
			_, err := c.Recv(0, 1)
			return err
		case 2:
			_, err := c.Recv(0, 2)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Traffic()
	if tr.IntraBytes != 100 || tr.InterBytes != 7 {
		t.Fatalf("Traffic() = %+v, want intra 100, inter 7", tr)
	}
}

// TestTopologyWorldChargesAsymmetricDelay: a cross-node send must pay the
// inter profile, an intra-node send must not.
func TestTopologyWorldChargesAsymmetricDelay(t *testing.T) {
	topo := UniformTopology(2, 1)
	const delay = 30 * time.Millisecond
	w, err := NewTopologyWorld(2, topo, LinkProfile{}, LinkProfile{Latency: delay})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := time.Now()
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, []byte{1})
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("cross-node send took %v, want >= %v", elapsed, delay)
	}

	// Same exchange within one node pays nothing measurable.
	intraTopo := UniformTopology(2, 2)
	w2, err := NewTopologyWorld(2, intraTopo, LinkProfile{}, LinkProfile{Latency: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	done := make(chan error, 1)
	go func() {
		done <- w2.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 1, []byte{1})
			}
			_, err := c.Recv(0, 1)
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("intra-node send appears to pay the inter-node delay")
	}
}
