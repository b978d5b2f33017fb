package simnet

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mpi"
)

// LinkID indexes a directed link in a topology.
type LinkID int

// FatTree is a two-level fat tree: hosts → leaf switches → spine switches.
// Every link is directional with a fixed bandwidth; each host has Rails
// parallel host-leaf links (one per adapter).
type FatTree struct {
	Hosts        int
	HostsPerLeaf int
	Spines       int
	Rails        int
	// HostBW is the bandwidth of one host-leaf rail, bytes/second.
	HostBW float64
	// FabricBW is the bandwidth of one leaf-spine link, bytes/second.
	FabricBW float64
	// Latency is the one-way flow latency in seconds (per flow, not per
	// link; flow-level approximation).
	Latency float64

	leaves int
	// Link layout: for each host h and rail r: up link (h,r), down link
	// (h,r); then for each leaf l and spine s: up, down.
	numLinks int
	bw       []float64
}

// NewFatTree constructs the topology. Oversubscription comes from choosing
// few spines relative to hostsPerLeaf·rails.
func NewFatTree(hosts, hostsPerLeaf, spines, rails int, hostBW, fabricBW, latency float64) (*FatTree, error) {
	if hosts <= 0 || hostsPerLeaf <= 0 || spines <= 0 || rails <= 0 {
		return nil, fmt.Errorf("simnet: invalid fat tree %d hosts, %d/leaf, %d spines, %d rails", hosts, hostsPerLeaf, spines, rails)
	}
	if hostBW <= 0 || fabricBW <= 0 {
		return nil, fmt.Errorf("simnet: non-positive bandwidth")
	}
	t := &FatTree{
		Hosts: hosts, HostsPerLeaf: hostsPerLeaf, Spines: spines, Rails: rails,
		HostBW: hostBW, FabricBW: fabricBW, Latency: latency,
	}
	t.leaves = (hosts + hostsPerLeaf - 1) / hostsPerLeaf
	hostLinks := hosts * rails * 2
	fabricLinks := t.leaves * spines * 2
	t.numLinks = hostLinks + fabricLinks
	t.bw = make([]float64, t.numLinks)
	for i := 0; i < hostLinks; i++ {
		t.bw[i] = hostBW
	}
	for i := hostLinks; i < t.numLinks; i++ {
		t.bw[i] = fabricBW
	}
	return t, nil
}

// Leaves returns the number of leaf switches.
func (t *FatTree) Leaves() int { return t.leaves }

// NumLinks returns the number of directed links.
func (t *FatTree) NumLinks() int { return t.numLinks }

// Bandwidth returns link l's bandwidth in bytes/second.
func (t *FatTree) Bandwidth(l LinkID) float64 { return t.bw[l] }

// SetBandwidth overrides one directed link's bandwidth — the hook for
// modeling oversubscribed core links or asymmetric up/down capacity on an
// otherwise regular tree.
func (t *FatTree) SetBandwidth(l LinkID, bw float64) error {
	if l < 0 || int(l) >= t.numLinks {
		return fmt.Errorf("simnet: link %d outside %d links", l, t.numLinks)
	}
	if bw <= 0 {
		return fmt.Errorf("simnet: non-positive bandwidth %g for link %d", bw, l)
	}
	t.bw[l] = bw
	return nil
}

// HostUp and HostDown return a host's rail links; LeafUp and LeafDown a
// leaf's spine links. Exported so tests and reports can address specific
// links (SetBandwidth, LinkName) without duplicating the layout math.
func (t *FatTree) HostUp(h, rail int) LinkID   { return LinkID((h*t.Rails + rail) * 2) }
func (t *FatTree) HostDown(h, rail int) LinkID { return t.HostUp(h, rail) + 1 }
func (t *FatTree) LeafUp(l, s int) LinkID      { return LinkID(t.Hosts*t.Rails*2 + (l*t.Spines+s)*2) }
func (t *FatTree) LeafDown(l, s int) LinkID    { return t.LeafUp(l, s) + 1 }

// LinkName renders a link id human-readably: host3/rail1/up,
// leaf0-spine2/down.
func (t *FatTree) LinkName(l LinkID) string {
	i := int(l)
	hostLinks := t.Hosts * t.Rails * 2
	if i < 0 || i >= t.numLinks {
		return fmt.Sprintf("link%d", i)
	}
	if i < hostLinks {
		dir := "up"
		if i%2 == 1 {
			dir = "down"
		}
		return fmt.Sprintf("host%d/rail%d/%s", i/2/t.Rails, (i/2)%t.Rails, dir)
	}
	i -= hostLinks
	dir := "up"
	if i%2 == 1 {
		dir = "down"
	}
	return fmt.Sprintf("leaf%d-spine%d/%s", i/2/t.Spines, (i/2)%t.Spines, dir)
}

func (t *FatTree) leafOf(h int) int { return h / t.HostsPerLeaf }

// Route returns the directed links a flow from src to dst traverses using
// the given rail. The spine is picked deterministically from (src, dst),
// emulating ECMP hashing.
func (t *FatTree) Route(src, dst, rail int) ([]LinkID, error) {
	if src < 0 || src >= t.Hosts || dst < 0 || dst >= t.Hosts {
		return nil, fmt.Errorf("simnet: route %d->%d outside %d hosts", src, dst, t.Hosts)
	}
	if src == dst {
		return nil, nil // loopback: no network links
	}
	rail = ((rail % t.Rails) + t.Rails) % t.Rails
	sl, dl := t.leafOf(src), t.leafOf(dst)
	if sl == dl {
		return []LinkID{t.HostUp(src, rail), t.HostDown(dst, rail)}, nil
	}
	spine := (src*31 + dst*17 + rail*7) % t.Spines
	return []LinkID{
		t.HostUp(src, rail),
		t.LeafUp(sl, spine),
		t.LeafDown(dl, spine),
		t.HostDown(dst, rail),
	}, nil
}

// PathBandwidth returns the bottleneck bandwidth in bytes/second of the
// src→dst route on the given rail — the minimum over the traversed links.
// Loopback (src == dst) traverses no network link and reports +Inf.
func (t *FatTree) PathBandwidth(src, dst, rail int) (float64, error) {
	links, err := t.Route(src, dst, rail)
	if err != nil {
		return 0, err
	}
	bw := math.Inf(1)
	for _, l := range links {
		if t.bw[l] < bw {
			bw = t.bw[l]
		}
	}
	return bw, nil
}

// LinkProfiles derives the asymmetric per-level link profiles the
// topology-aware mpi worlds consume: intra is the within-node level (shared
// memory — modeled an order of magnitude faster than the fabric in both
// latency and bandwidth), inter the cross-node level (the fabric's
// bottleneck path bandwidth and flow latency). slowdown >= 1 scales both
// levels uniformly; the in-process benchmarks use it so a tiny workload's
// wall clock still splits visibly into compute and communication without
// changing the intra/inter asymmetry being studied.
func (t *FatTree) LinkProfiles(slowdown float64) (intra, inter mpi.LinkProfile, err error) {
	if slowdown < 1 {
		slowdown = 1
	}
	// Representative cross-node path: host 0 to the last host (crossing
	// leaves whenever the fabric has more than one; within one leaf the
	// host-leaf rails still bound it).
	crossBW, err := t.PathBandwidth(0, t.Hosts-1, 0)
	if err != nil {
		return mpi.LinkProfile{}, mpi.LinkProfile{}, err
	}
	if math.IsInf(crossBW, 1) { // single-host fabric: no cross-node path
		crossBW = t.HostBW
	}
	lat := time.Duration(t.Latency * slowdown * float64(time.Second))
	inter = mpi.LinkProfile{Latency: lat, BytesPerSec: crossBW / slowdown}
	intra = mpi.LinkProfile{Latency: lat / 10, BytesPerSec: 10 * crossBW / slowdown}
	return intra, inter, nil
}

// MinskyFabric returns the paper's cluster fabric: up to `hosts` Minsky
// nodes, two 100 Gb/s rails per host (ConnectX-5), non-blocking two-level
// fat tree. Effective per-rail bandwidth is set to 11 GB/s (100 Gb/s line
// rate less protocol overhead) and flow latency to 5 µs.
func MinskyFabric(hosts int) *FatTree {
	hostsPerLeaf := 8
	if hosts < 8 {
		hostsPerLeaf = hosts
	}
	leaves := (hosts + hostsPerLeaf - 1) / hostsPerLeaf
	spines := leaves // non-blocking at the observed scales
	if spines < 1 {
		spines = 1
	}
	t, err := NewFatTree(hosts, hostsPerLeaf, spines, 2, 11e9, 2*11e9*float64(hostsPerLeaf)/float64(spines)/2, 5e-6)
	if err != nil {
		panic(err) // parameters are internal constants
	}
	return t
}
