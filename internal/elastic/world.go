package elastic

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// Transport names accepted by Config.Transport.
const (
	TransportMem = "mem"
	TransportTCP = "tcp"
)

// clusterWorld abstracts the fabric one incarnation runs over, so the same
// orchestrator drives the in-memory mailbox world and real TCP loopback
// sockets. The contract mirrors what recovery needs from a transport:
//
//   - run spawns one goroutine per rank with its world communicator and a
//     control communicator for the heartbeat monitor;
//   - tick reports a step boundary and kills the rank when the fault
//     schedule says so, returning the crash error for the victim to exit
//     with;
//   - crash kills a rank immediately (second failures injected inside a
//     recovery phase);
//   - suspect applies one rank's local failure verdict about a peer — the
//     heartbeat monitor's OnSuspect lands here;
//   - traffic reports the wire bytes per link class.
//
// A fault-free run calls only run, traffic and close.
type clusterWorld interface {
	run(fn func(rank int, c, mon *mpi.Comm) error) error
	tick(rank, step int) error
	crash(rank int)
	suspect(observer, rank int)
	traffic() mpi.Traffic
	close()
}

// memCluster runs an incarnation over the mpi.World Config.NewWorld built,
// with the fault injector when the run is faulty. A crash here is CONFIRMED
// world-wide the instant it lands (every mailbox is down-marked), so
// negotiation progress never depends on the monitor — the monitor still
// runs, as the same integration the TCP path relies on.
type memCluster struct {
	w   *mpi.World
	inj *mpi.FaultInjector
}

func (m *memCluster) run(fn func(rank int, c, mon *mpi.Comm) error) error {
	return m.w.Run(func(c *mpi.Comm) error {
		mon, err := m.w.ControlComm(c.Rank())
		if err != nil {
			return err
		}
		return fn(c.Rank(), c, mon)
	})
}

func (m *memCluster) tick(rank, step int) error  { return m.inj.Tick(rank, step) }
func (m *memCluster) crash(rank int)             { m.inj.Crash(rank) }
func (m *memCluster) suspect(observer, rank int) { m.w.Suspect(observer, rank) }
func (m *memCluster) traffic() mpi.Traffic       { return m.w.Traffic() }
func (m *memCluster) close()                     { m.w.Close() }

// tcpCluster runs an incarnation over loopback TCP sockets, one TCPWorld
// endpoint per rank on a dynamic port. A crash closes the victim's own
// endpoint — its listener, its connections, its mailbox — which is all a
// real process death leaves behind: no world-wide down-marking exists, so
// survivors learn of the death the way the paper's deployment would, from
// socket errors, receive timeouts, and heartbeat silence turning into
// suspicion (suspect → MarkDown).
type tcpCluster struct {
	worlds  []*mpi.TCPWorld
	crashAt map[int]int // rank → step killing it at that boundary
	crashed []atomic.Bool
}

// tcpReconnectPolicy keeps heartbeat sends to a dead peer from stalling the
// sender long: two quick redials and out, transient-typed.
func tcpReconnectPolicy() mpi.ReconnectPolicy {
	return mpi.ReconnectPolicy{Attempts: 2, Backoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
}

func newTCPCluster(n int, crashAt map[int]int, detectTimeout time.Duration) (*tcpCluster, error) {
	t := &tcpCluster{
		worlds:  make([]*mpi.TCPWorld, n),
		crashAt: crashAt,
		crashed: make([]atomic.Bool, n),
	}
	placeholder := make([]string, n)
	for i := range placeholder {
		placeholder[i] = "127.0.0.1:0"
	}
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		w, err := mpi.NewTCPWorld(r, placeholder)
		if err != nil {
			for q := 0; q < r; q++ {
				t.worlds[q].Close()
			}
			return nil, fmt.Errorf("elastic: tcp endpoint for rank %d: %w", r, err)
		}
		t.worlds[r] = w
		addrs[r] = w.Addr()
	}
	for _, w := range t.worlds {
		w.SetAddrs(addrs)
		w.SetDetectTimeout(detectTimeout)
		w.SetReconnectPolicy(tcpReconnectPolicy())
	}
	return t, nil
}

func (t *tcpCluster) run(fn func(rank int, c, mon *mpi.Comm) error) error {
	n := len(t.worlds)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := t.worlds[rank].Comm()
			if err != nil {
				errs <- err
				return
			}
			mon, err := t.worlds[rank].ControlComm()
			if err != nil {
				errs <- err
				return
			}
			errs <- fn(rank, c, mon)
		}(r)
	}
	wg.Wait()
	close(errs)
	var first error
	for err := range errs {
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t *tcpCluster) tick(rank, step int) error {
	if s, ok := t.crashAt[rank]; ok && step >= s && !t.crashed[rank].Load() {
		t.crash(rank)
		return &mpi.RankDownError{Rank: rank}
	}
	return nil
}

func (t *tcpCluster) crash(rank int) {
	if t.crashed[rank].Swap(true) {
		return
	}
	t.worlds[rank].Close()
}

func (t *tcpCluster) suspect(observer, rank int) {
	t.worlds[observer].MarkDown(rank)
}

func (t *tcpCluster) traffic() mpi.Traffic { return mpi.Traffic{} }

func (t *tcpCluster) close() {
	for _, w := range t.worlds {
		w.Close()
	}
}

// newClusterWorld builds the fabric for one incarnation; a fault-free one
// carries no fault plan, so nothing times out or fails on purpose.
func newClusterWorld(cfg *Config, members []int, fired map[int]bool, incarnation int, faulty bool) (clusterWorld, error) {
	var plan mpi.FaultPlan
	if faulty {
		plan = incarnationPlan(cfg, members, fired, incarnation)
	}
	if cfg.Transport == TransportTCP {
		return newTCPCluster(len(members), plan.CrashAtStep, plan.DetectTimeout)
	}
	w, err := cfg.NewWorld(len(members))
	if err != nil {
		return nil, err
	}
	m := &memCluster{w: w}
	if faulty {
		m.inj = w.InjectFaults(plan)
	}
	return m, nil
}
