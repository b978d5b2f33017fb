package detect

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// monCfg keeps the suites fast but race-tolerant: 10ms heartbeats, 150ms
// suspicion windows.
func monCfg() Config {
	return Config{Interval: 10 * time.Millisecond, SuspectAfter: 150 * time.Millisecond, Seed: 7}
}

// A silent peer must be suspected by every live rank, and the suspicion
// verdict must make a blocked receive from it fail with the typed
// *mpi.RankDownError — with no "survivor happens to be blocked receiving
// from the dead rank" precondition: detection happens in the monitor.
func TestMonitorSuspectsSilentPeerMailbox(t *testing.T) {
	const n, silent = 3, 2
	w := mpi.NewWorld(n)
	defer w.Close()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		if r == silent {
			continue // never starts a monitor: dead from the start
		}
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.MustComm(rank)
			cfg := monCfg()
			cfg.OnSuspect = func(peer int) { w.Suspect(rank, peer) }
			m := NewMonitor(c, cfg)
			m.Start()
			defer m.Stop()
			deadline := time.Now().Add(5 * time.Second)
			for !m.Suspected(silent) {
				if time.Now().After(deadline) {
					errs <- errors.New("silent peer never suspected")
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			// The verdict must have fed the typed failure path.
			if _, err := c.Recv(silent, 9); !errors.Is(err, mpi.ErrRankDown) {
				errs <- errors.New("recv from suspected rank did not fail typed")
				return
			}
			errs <- nil
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Only a heartbeat frame is liveness. A peer whose monitor is gone but which
// still writes something else on the monitor's tag — here the 13-byte frame
// heartbeats had while they carried a membership epoch nobody read — is as
// silent as one that writes nothing.
func TestMonitorIgnoresFramesThatAreNotHeartbeats(t *testing.T) {
	w := mpi.NewWorld(2)
	defer w.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		c := w.MustComm(1)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				_ = c.Send(0, hbTag, make([]byte, 13))
			}
		}
	}()
	m := NewMonitor(w.MustComm(0), monCfg())
	m.Start()
	defer m.Stop()
	for deadline := time.Now().Add(5 * time.Second); !m.Suspected(1); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a peer sending only malformed frames was never suspected")
		}
	}
}

// Live, heartbeating peers must never be suspected across many windows.
func TestMonitorNoFalsePositivesMailbox(t *testing.T) {
	const n = 3
	w := mpi.NewWorld(n)
	defer w.Close()
	var mu sync.Mutex
	var verdicts []int
	mons := make([]*Monitor, n)
	for r := 0; r < n; r++ {
		cfg := monCfg()
		cfg.OnSuspect = func(peer int) {
			mu.Lock()
			verdicts = append(verdicts, peer)
			mu.Unlock()
		}
		mons[r] = NewMonitor(w.MustComm(r), cfg)
	}
	for _, m := range mons {
		m.Start()
	}
	time.Sleep(500 * time.Millisecond) // > 3 suspicion windows
	for _, m := range mons {
		m.Stop()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(verdicts) != 0 {
		t.Fatalf("false suspicion verdicts against live peers: %v", verdicts)
	}
}

// Phi must stay low for a chattering peer and grow for a silent one.
func TestMonitorPhiGrowsWithSilence(t *testing.T) {
	const n = 2
	w := mpi.NewWorld(n)
	defer w.Close()
	live := NewMonitor(w.MustComm(0), monCfg())
	peer := NewMonitor(w.MustComm(1), monCfg())
	live.Start()
	peer.Start()
	time.Sleep(100 * time.Millisecond)
	phiLive := live.Phi(1)
	peer.Stop() // goes silent
	time.Sleep(200 * time.Millisecond)
	phiSilent := live.Phi(1)
	live.Stop()
	if phiSilent <= phiLive || phiSilent < 2 {
		t.Fatalf("phi did not accrue with silence: live %.2f, silent %.2f", phiLive, phiSilent)
	}
}

// The monitor must work identically over real sockets: kill one TCP rank
// abruptly and the survivor's monitor — not a blocked Recv — must detect it
// and down-mark the rank so the next receive fails typed.
func TestMonitorSuspectsKilledPeerTCP(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	var worlds [2]*mpi.TCPWorld
	table := make([]string, 2)
	for i := range worlds {
		w, err := mpi.NewTCPWorld(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
		table[i] = w.Addr()
	}
	for _, w := range worlds {
		w.SetAddrs(table)
	}
	defer worlds[0].Close()

	c0, err := worlds[0].Comm()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := worlds[1].Comm()
	if err != nil {
		t.Fatal(err)
	}
	cfg := monCfg()
	cfg.OnSuspect = func(peer int) { worlds[0].MarkDown(peer) }
	m0 := NewMonitor(c0, cfg)
	m1 := NewMonitor(c1, monCfg())
	m0.Start()
	m1.Start()
	defer m0.Stop()

	// Let a few heartbeats flow, then kill rank 1 abruptly.
	time.Sleep(50 * time.Millisecond)
	m1.Stop()
	worlds[1].Close()

	deadline := time.Now().Add(5 * time.Second)
	for !m0.Suspected(1) {
		if time.Now().After(deadline) {
			t.Fatal("killed TCP peer never suspected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c0.Recv(1, 9); !errors.Is(err, mpi.ErrRankDown) {
		t.Fatalf("recv from suspected TCP rank got %v, want ErrRankDown", err)
	}
	// Sends to a down-marked rank fail fast and confirmed, not transient.
	if err := c0.Send(1, 9, []byte("x")); !errors.Is(err, mpi.ErrRankDown) || mpi.IsTransient(err) {
		t.Fatalf("send to down-marked TCP rank got %v, want confirmed ErrRankDown", err)
	}
}
