package mpi

import "time"

// LinkProfile models a network link for the in-process transport: each
// message pays Latency plus len/BytesPerSec of wall time before delivery.
// The zero value means instantaneous (plain shared-memory behaviour).
type LinkProfile struct {
	// Latency is the per-message fixed cost.
	Latency time.Duration
	// BytesPerSec is the serialization bandwidth; 0 disables the size term.
	BytesPerSec float64
}

// Delay returns the wall time a message of n bytes occupies the link.
func (p LinkProfile) Delay(n int) time.Duration {
	d := p.Latency
	if p.BytesPerSec > 0 {
		d += time.Duration(float64(n) / p.BytesPerSec * float64(time.Second))
	}
	return d
}

// wait occupies the caller for the wall time an n-byte message occupies the
// link — the one way a transport charges a profile. The delay counts from the
// call (a sender queued on an egress link calls it once the link is its own)
// and is delivered as the profile states it, not rounded up to a runtime
// timer tick: see sleepUntil.
func (p LinkProfile) wait(n int) {
	if d := p.Delay(n); d > 0 {
		sleepUntil(time.Now().Add(d))
	}
}

// NewLatencyWorld creates an in-process world whose sends pay the link
// profile's delay before the message is enqueued at the destination. Each
// rank's outbound messages serialize through one egress link (one NIC per
// node), so total communication time scales with the bytes a rank emits —
// compression shortens it, and only genuinely concurrent compute can hide
// it. Blocking Send occupies the caller for the delay, exactly like a real
// wire; non-blocking Isend pays it on the destination's sender. Experiments
// that need a comm-heavy configuration (the overlap benchmark) use this to
// make inter-node traffic cost honest wall time instead of a free memcpy.
//
// It is the topology world with one rank per node: every message crosses
// the inter-node link, so Traffic reports all sent bytes as InterBytes.
func NewLatencyWorld(n int, link LinkProfile) *World {
	w := NewWorld(n)
	w.topo = &topoNet{topo: UniformTopology(n, 1), inter: link}
	return w
}
