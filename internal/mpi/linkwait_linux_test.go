//go:build linux

package mpi

import (
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestLinkWaitDeliversTheProfile: a charged hop costs what its profile says.
// Fifty sequential waits of each length — an idle process, as an exchange
// whose ranks all wait on the wire is — are every one at least that long, and
// their median is within 400 µs of it: the bound a wait on the runtime timer
// alone misses below a millisecond, where every sleep is one ≈ 1.1 ms epoll
// tick, and by up to that tick above. The median is the best of three
// attempts: the box is shared.
func TestLinkWaitDeliversTheProfile(t *testing.T) {
	const slop = 400 * time.Microsecond
	for _, d := range []time.Duration{50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		p := LinkProfile{Latency: d}
		best := time.Duration(1 << 62)
		for attempt := 0; attempt < 3 && best > d+slop; attempt++ {
			waits := make([]time.Duration, 50)
			for i := range waits {
				start := time.Now()
				p.wait(0)
				waits[i] = time.Since(start)
				if waits[i] < d {
					t.Fatalf("wait of %v returned after %v", d, waits[i])
				}
			}
			sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
			best = min(best, waits[len(waits)/2])
		}
		if best > d+slop {
			t.Errorf("median wait of %v is %v, more than %v over", d, best, slop)
		}
	}
}

// TestLinkWaitsOverlap: a wait holds neither a P nor a thread, so more ranks
// than there are Ps wait on their links at once — intra-node sends are
// concurrent in the link model, and a wait that kept its P (a sleeping system
// call does, until the runtime's monitor takes it back, which can take
// milliseconds) would serialise them GOMAXPROCS at a time.
func TestLinkWaitsOverlap(t *testing.T) {
	const d = time.Millisecond
	p := LinkProfile{Latency: d}
	waiters := 4 * runtime.GOMAXPROCS(0)
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 3 && best > 2*d; attempt++ {
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.wait(0)
			}()
		}
		wg.Wait()
		best = min(best, time.Since(start))
	}
	if best > 2*d {
		t.Fatalf("%d concurrent waits of %v took %v: they did not overlap", waiters, d, best)
	}
}

// TestLinkWaitDoesNotSpin: a hundred 1 ms waits burn next to no CPU. Ranks
// outnumber Ps in every in-process world, so a wait that polled the clock
// would take its cycles from another rank's compute.
func TestLinkWaitDoesNotSpin(t *testing.T) {
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p := LinkProfile{Latency: time.Millisecond}
	before := cpu()
	for i := 0; i < 100; i++ {
		p.wait(0)
	}
	if used := cpu() - before; used > 25*time.Millisecond {
		t.Fatalf("100 waits of 1 ms used %v of CPU", used)
	}
}

// TestLinkWaitSurvivesSignals: the runtime's preemption and profiling signals
// can land on any thread, and a sleeping system call is never restarted after
// a handler ran (signal(7)) — a wait, however it sleeps, lasts its length
// under a fire of signals that does cut a bare nanosleep short.
func TestLinkWaitSurvivesSignals(t *testing.T) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGUSR1) // handled, so it interrupts and does not kill
	defer signal.Stop(sigs)

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	pid, tid := syscall.Getpid(), syscall.Gettid()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			_ = syscall.Tgkill(pid, tid, syscall.SIGUSR1)
			gap := syscall.NsecToTimespec(int64(100 * time.Microsecond))
			_ = syscall.Nanosleep(&gap, nil)
		}
	}()
	defer func() { stop.Store(true); <-done }()

	// The premise: under this fire a bare nanosleep does come back early.
	const d = 1500 * time.Microsecond
	interrupted := false
	for i := 0; i < 20 && !interrupted; i++ {
		ts := syscall.NsecToTimespec(int64(d))
		interrupted = syscall.Nanosleep(&ts, nil) == syscall.EINTR
	}
	if !interrupted {
		t.Skip("no signal interrupted a bare nanosleep here")
	}
	p := LinkProfile{Latency: d}
	for i := 0; i < 20; i++ {
		start := time.Now()
		p.wait(0)
		if el := time.Since(start); el < d {
			t.Fatalf("interrupted wait of %v returned after %v", d, el)
		}
	}
}
