package mpi

import (
	"fmt"
	"sync/atomic"
)

// Topology maps communicator ranks onto physical nodes, so collectives can
// distinguish cheap intra-node links (shared memory, NVLink) from the scarce
// inter-node fabric. Node[r] is the node index of communicator rank r.
//
// Ranks of one node must be CONTIGUOUS and nodes numbered 0..Nodes()-1 in
// rank order (Validate enforces it). Contiguity is not a simplification; it
// is what lets the hierarchical collectives reproduce the flat rank-order
// reduction bit for bit: folding node 0's ranks, then node 1's, then node
// 2's IS the global rank-order fold exactly when each node is a contiguous
// rank block. The zero value (no Node entries) means "no topology" — a flat
// world.
type Topology struct {
	// Node[r] is the node hosting communicator rank r.
	Node []int
}

// UniformTopology lays ranks out as ranks/ranksPerNode equally sized nodes:
// rank r lives on node r/ranksPerNode (the last node may be smaller when
// ranksPerNode does not divide ranks).
func UniformTopology(ranks, ranksPerNode int) Topology {
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	node := make([]int, ranks)
	for r := range node {
		node[r] = r / ranksPerNode
	}
	return Topology{Node: node}
}

// IsSet reports whether the topology describes any ranks (the zero value
// does not).
func (t Topology) IsSet() bool { return len(t.Node) > 0 }

// Nodes returns the node count (0 for the zero value).
func (t Topology) Nodes() int {
	if len(t.Node) == 0 {
		return 0
	}
	return t.Node[len(t.Node)-1] + 1
}

// NodeOf returns the node hosting rank r.
func (t Topology) NodeOf(r int) int { return t.Node[r] }

// Validate checks the topology against a communicator size: one entry per
// rank, node ids starting at 0, nondecreasing, without gaps — i.e. every
// node is a contiguous rank block and nodes are numbered in rank order.
func (t Topology) Validate(size int) error {
	if len(t.Node) != size {
		return fmt.Errorf("mpi: topology has %d ranks, communicator has %d", len(t.Node), size)
	}
	if t.Node[0] != 0 {
		return fmt.Errorf("mpi: topology must start at node 0, rank 0 is on node %d", t.Node[0])
	}
	for r := 1; r < size; r++ {
		if t.Node[r] < t.Node[r-1] || t.Node[r] > t.Node[r-1]+1 {
			return fmt.Errorf("mpi: topology nodes must be contiguous rank blocks in order; rank %d on node %d after node %d",
				r, t.Node[r], t.Node[r-1])
		}
	}
	return nil
}

// NodeBounds returns the rank layout as a bounds slice of length Nodes()+1:
// node k hosts ranks [b[k], b[k+1]). Valid only for a Validate-clean
// topology.
func (t Topology) NodeBounds() []int {
	n := t.Nodes()
	b := make([]int, n+1)
	b[n] = len(t.Node)
	for r := 1; r < len(t.Node); r++ {
		if t.Node[r] != t.Node[r-1] {
			b[t.Node[r]] = r
		}
	}
	return b
}

// Leaders returns every node's leader rank, in node order.
func (t Topology) Leaders() []int {
	leaders := make([]int, 0, t.Nodes())
	for r, n := range t.Node {
		if n == len(leaders) {
			leaders = append(leaders, r)
		}
	}
	return leaders
}

// Traffic is a world's cumulative wire-byte accounting, split by link class.
type Traffic struct {
	// IntraBytes crossed only a node's internal links (both endpoints on
	// one node).
	IntraBytes int64
	// InterBytes crossed the inter-node fabric — the scarce resource the
	// hierarchical collectives conserve.
	InterBytes int64
}

// topoNet is the shared per-world state of a topology world: the rank→node
// map, the two link profiles, and the traffic counters every rank's
// transport feeds.
type topoNet struct {
	topo       Topology
	intra      LinkProfile
	inter      LinkProfile
	intraBytes atomic.Int64
	interBytes atomic.Int64
}

// NewTopologyWorld creates an in-process world whose links are asymmetric:
// messages between ranks on the same node pay the intra profile, messages
// crossing nodes pay the inter profile — the fast-shared-memory /
// slow-fabric split of a real cluster. Inter-node sends serialize through
// one egress lock per rank (the node's NIC share); intra-node sends sleep
// concurrently (shared memory has no single bottleneck link). The world
// additionally counts every sent byte per link class; read the totals with
// Traffic. Zero profiles cost nothing but are still counted, so a test can
// measure bytes without paying wall time.
func NewTopologyWorld(n int, topo Topology, intra, inter LinkProfile) (*World, error) {
	if err := topo.Validate(n); err != nil {
		return nil, err
	}
	w := NewWorld(n)
	w.topo = &topoNet{topo: topo, intra: intra, inter: inter}
	return w, nil
}

// Traffic returns the per-link-class byte totals of a topology world (zeros
// for worlds built without a topology).
func (w *World) Traffic() Traffic {
	if w.topo == nil {
		return Traffic{}
	}
	return Traffic{
		IntraBytes: w.topo.intraBytes.Load(),
		InterBytes: w.topo.interBytes.Load(),
	}
}

// charge accounts and delays an n-byte message from t.rank to dst on a world
// with a link model; the profile depends on whether the destination shares
// the sender's node. It charges the sender, and memTransport.sendMsg is its
// only caller, so copying, ownership-transfer, lent and shared sends always
// pay identical cost.
func (t *memTransport) charge(dst, n int) {
	net := t.net
	if net.topo.NodeOf(t.rank) == net.topo.NodeOf(dst) {
		net.intraBytes.Add(int64(n))
		net.intra.wait(n)
		return
	}
	net.interBytes.Add(int64(n))
	if net.inter.Delay(n) > 0 { // a free message does not queue
		t.egress.Lock()
		net.inter.wait(n)
		t.egress.Unlock()
	}
}
