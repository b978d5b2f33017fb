package mpi

import (
	"encoding/hex"
	"errors"
	"testing"
	"time"
)

func TestRankDownErrorMatchesSentinel(t *testing.T) {
	cause := errors.New("boom")
	err := error(&RankDownError{Rank: 3, Cause: cause})
	if !errors.Is(err, ErrRankDown) {
		t.Fatal("RankDownError must match ErrRankDown")
	}
	if !errors.Is(err, cause) {
		t.Fatal("RankDownError must unwrap to its cause")
	}
	if got := DownRank(err); got != 3 {
		t.Fatalf("DownRank = %d, want 3", got)
	}
	if got := DownRank(errors.New("other")); got != -1 {
		t.Fatalf("DownRank(non-rank error) = %d, want -1", got)
	}
}

// A crashed rank fails sends to it immediately and receives from it once its
// already-delivered messages drain — in-flight data survives the crash.
func TestFaultCrashFailsSendsAndDrainsRecvs(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0 := w.MustComm(0)
	c1 := w.MustComm(1)

	// Rank 1 sends once, then dies.
	if err := c1.Send(0, 7, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	w.Crash(1)

	// The in-flight message is still delivered...
	got, err := c0.Recv(1, 7)
	if err != nil || string(got) != "pre" {
		t.Fatalf("pre-crash message: %q, %v", got, err)
	}
	// ...then receives from the dead rank fail instead of hanging.
	if _, err := c0.Recv(1, 7); !errors.Is(err, ErrRankDown) {
		t.Fatalf("recv from dead rank: %v, want ErrRankDown", err)
	}
	if _, _, err := c0.TryRecv(1, 7); !errors.Is(err, ErrRankDown) {
		t.Fatalf("tryRecv from dead rank: %v, want ErrRankDown", err)
	}
	// Sends to the dead rank fail too.
	if err := c0.Send(1, 7, []byte("x")); !errors.Is(err, ErrRankDown) {
		t.Fatalf("send to dead rank: %v, want ErrRankDown", err)
	}
	if got := w.DownRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DownRanks = %v, want [1]", got)
	}
}

// A receive already blocked when the crash lands must wake up and fail, not
// wait forever.
func TestFaultCrashWakesBlockedRecv(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0 := w.MustComm(0)

	errc := make(chan error, 1)
	go func() {
		_, err := c0.Recv(1, 9)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the recv block
	w.Crash(1)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrRankDown) {
			t.Fatalf("blocked recv: %v, want ErrRankDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked recv did not wake after crash")
	}
}

func TestFaultTickCrashAtStep(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	inj := w.InjectFaults(FaultPlan{CrashAtStep: map[int]int{2: 5}})

	for step := 0; step < 5; step++ {
		for r := 0; r < 3; r++ {
			if err := inj.Tick(r, step); err != nil {
				t.Fatalf("unexpected crash at step %d rank %d: %v", step, r, err)
			}
		}
	}
	if err := inj.Tick(2, 5); !errors.Is(err, ErrRankDown) {
		t.Fatalf("Tick(2, 5) = %v, want ErrRankDown", err)
	}
	if !inj.Crashed(2) || inj.Crashed(0) {
		t.Fatal("crash bookkeeping wrong")
	}
	// The victim's own comm refuses further traffic.
	c2 := w.MustComm(2)
	if err := c2.Send(0, 1, []byte("x")); !errors.Is(err, ErrRankDown) {
		t.Fatalf("send from crashed rank: %v, want ErrRankDown", err)
	}
	if _, err := c2.Recv(0, 1); !errors.Is(err, ErrRankDown) {
		t.Fatalf("recv on crashed rank: %v, want ErrRankDown", err)
	}
}

// Equal seeds must drop exactly the same messages regardless of timing.
func TestFaultDeterministicDrops(t *testing.T) {
	pattern := func(seed int64) []bool {
		w := NewWorld(2)
		defer w.Close()
		inj := w.InjectFaults(FaultPlan{Seed: seed, DropProb: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.drop(0)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop %d differs across equal-seed runs", i)
		}
	}
	diff := 0
	for i, v := range pattern(43) {
		if v != a[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical drop patterns")
	}
	drops := 0
	for _, v := range a {
		if v {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("drop count %d/%d not probabilistic", drops, len(a))
	}

	// The schedule as the wire sees it: which of rank 0's first 200 messages
	// reach rank 1 under FaultPlan{Seed: 42, DropProb: 0.3}, one bit per
	// message, recorded when the injector was a wrapper transport of its own
	// (5ccdc85). A send path that consults drop twice, or not at all, or lets
	// a control-plane send tick the counter shifts every later bit.
	const golden = "f9fbb379fffe7f1ffc46e92f7fdb7dfe3f7ff1aefcbf779edb"
	topo, err := NewTopologyWorld(2, UniformTopology(2, 1), LinkProfile{}, LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*World{"plain": NewWorld(2), "topology": topo} {
		w.InjectFaults(FaultPlan{Seed: 42, DropProb: 0.3})
		if got := wireDropSchedule(t, w); got != golden {
			t.Errorf("%s world: arrivals %s, want %s", name, got, golden)
		}
		w.Close()
	}
}

// wireDropSchedule sends 200 numbered messages from rank 0 to rank 1 through
// Send, SendOwned and SendFloats in turn, a control-plane send between every
// fourth pair, and returns the arrivals as a hex bitmap. Every control send
// must arrive: the control plane is not subject to drops.
func wireDropSchedule(t *testing.T, w *World) string {
	t.Helper()
	const n, tag = 200, 5
	c0, c1 := w.MustComm(0), w.MustComm(1)
	ctl0, err := w.ControlComm(0)
	if err != nil {
		t.Fatal(err)
	}
	ctl1, err := w.ControlComm(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := []float32{float32(i)}
		switch i % 3 {
		case 0:
			err = c0.Send(1, tag, Float32sToBytes(v))
		case 1:
			b := GetBytes(4)
			EncodeFloat32s(b, v)
			err = c0.SendOwned(1, tag, b)
		case 2:
			err = c0.SendFloats(1, tag, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := ctl0.Send(1, tag, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	arrived := make([]byte, n/8)
	for {
		b, ok, err := c1.TryRecv(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		var v [1]float32
		DecodeFloat32s(v[:], b)
		arrived[int(v[0])/8] |= 1 << (int(v[0]) % 8)
		PutBytes(b)
	}
	for i := 0; i < n; i += 4 {
		if b, ok, err := ctl1.TryRecv(0, tag); !ok || err != nil || b[0] != byte(i) {
			t.Fatalf("control send %d: got %v, %v, %v — the control plane must not drop", i, b, ok, err)
		}
	}
	return hex.EncodeToString(arrived)
}

// With drops on and a detection timeout, a lost message surfaces as a
// presumed-dead source instead of a hang.
func TestFaultDropWithDetectTimeout(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	w.InjectFaults(FaultPlan{DropProb: 1, DetectTimeout: 50 * time.Millisecond})
	c0 := w.MustComm(0)
	c1 := w.MustComm(1)

	if err := c1.Send(0, 3, []byte("lost")); err != nil {
		t.Fatal(err) // the drop is silent
	}
	start := time.Now()
	_, err := c0.Recv(1, 3)
	if !errors.Is(err, ErrRankDown) {
		t.Fatalf("recv of dropped message: %v, want ErrRankDown", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("detection took %v, want about the 50ms timeout", elapsed)
	}
}

func TestFaultSlowRankDelaysSends(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	w.InjectFaults(FaultPlan{Slow: map[int]LinkProfile{
		1: {Latency: 30 * time.Millisecond},
	}})
	c0 := w.MustComm(0)
	c1 := w.MustComm(1)

	start := time.Now()
	if err := c1.Send(0, 4, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("straggler send took %v, want >= 30ms", elapsed)
	}
	start = time.Now()
	if err := c0.Send(1, 4, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("non-straggler send took %v, want fast", elapsed)
	}
	if _, err := c0.Recv(1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Recv(0, 4); err != nil {
		t.Fatal(err)
	}
}

// Collectives must fail on every survivor, not deadlock, when a member dies.
func TestFaultCollectivesSurfaceRankDown(t *testing.T) {
	w := NewWorld(4)
	defer w.Close()
	w.Crash(2)

	errs := make(chan error, 3)
	for _, r := range []int{0, 1, 3} {
		go func(rank int) {
			c := w.MustComm(rank)
			errs <- c.Barrier()
		}(r)
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrRankDown) {
				t.Fatalf("barrier with dead member: %v, want ErrRankDown", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("barrier deadlocked on dead member")
		}
	}
}

// The TCP transport detects a silent peer via the Recv deadline and fails
// fast afterwards.
func TestFaultTCPRankDownDetection(t *testing.T) {
	w0, err := NewTCPWorld(0, []string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w1, err := NewTCPWorld(1, []string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{w0.Addr(), w1.Addr()}
	w0.SetAddrs(addrs)
	w1.SetAddrs(addrs)
	w0.SetDetectTimeout(60 * time.Millisecond)

	c0, err := w0.Comm()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := w1.Comm()
	if err != nil {
		t.Fatal(err)
	}

	// Live traffic flows normally under the deadline.
	if err := c1.Send(0, 2, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if got, err := c0.Recv(1, 2); err != nil || string(got) != "alive" {
		t.Fatalf("live recv: %q, %v", got, err)
	}

	// Kill the peer; the next recv times out as a rank failure...
	w1.Close()
	start := time.Now()
	if _, err := c0.Recv(1, 2); !errors.Is(err, ErrRankDown) {
		t.Fatalf("recv from dead tcp peer: %v, want ErrRankDown", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("detection fired after %v, before the deadline", elapsed)
	}
	// ...and the source is marked down, so the retry fails fast.
	start = time.Now()
	if _, err := c0.Recv(1, 2); !errors.Is(err, ErrRankDown) {
		t.Fatalf("second recv: %v, want ErrRankDown", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("marked-down recv took %v, want fast-fail", elapsed)
	}
}

// Receivers parked on two keys of one mailbox (tags 1 and 2 from rank 1): a
// put wakes its own key's receiver and leaves the other parked, and each event
// that can end every wait — a close, a suspicion, a crash, a detection
// timeout — releases both, with its own typed error.
func TestRankDownWakesEveryKeyAPutOnlyItsOwn(t *testing.T) {
	tags := []int{1, 2}
	park := func(t *testing.T, w *World) []chan error {
		t.Helper()
		errs := make([]chan error, len(tags))
		for i, tag := range tags {
			errs[i] = make(chan error, 1)
			go func(c *Comm, tag int, out chan error) {
				b, err := c.Recv(1, tag)
				PutBytes(b)
				out <- err
			}(w.MustComm(0), tag, errs[i])
		}
		// A blocking wait makes its key's queue under the mutex it parks on:
		// once both queues exist, both receivers are parked.
		box := w.boxes[0]
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			box.mu.Lock()
			n := len(box.queues)
			box.mu.Unlock()
			if n == len(tags) {
				return errs
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d receivers parked", n, len(tags))
			}
		}
	}
	released := func(t *testing.T, errc chan error) error {
		t.Helper()
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("a parked receiver was not released")
			return nil
		}
	}

	t.Run("put", func(t *testing.T) {
		w := NewWorld(2)
		defer w.Close()
		errs := park(t, w)
		if err := w.MustComm(1).Send(0, tags[0], []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := released(t, errs[0]); err != nil {
			t.Fatalf("the put's own key: %v", err)
		}
		select {
		case err := <-errs[1]:
			t.Fatalf("the other key's receiver returned %v on a put it does not match", err)
		case <-time.After(20 * time.Millisecond):
		}
		w.Close()
		if err := released(t, errs[1]); !errors.Is(err, ErrClosed) {
			t.Fatalf("after Close: %v, want ErrClosed", err)
		}
	})
	for _, tc := range []struct {
		name  string
		plan  FaultPlan
		event func(w *World)
		check func(err error) bool
	}{
		{"Close", FaultPlan{}, (*World).Close, func(err error) bool { return errors.Is(err, ErrClosed) }},
		{"Suspect", FaultPlan{}, func(w *World) { w.Suspect(0, 1) },
			func(err error) bool { return DownRank(err) == 1 && !IsTransient(err) }},
		{"Crash", FaultPlan{}, func(w *World) { w.Crash(1) },
			func(err error) bool { return DownRank(err) == 1 && !IsTransient(err) }},
		{"detection timeout", FaultPlan{DetectTimeout: 30 * time.Millisecond}, func(*World) {},
			func(err error) bool { return DownRank(err) == 1 && IsDetectTimeout(err) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(2)
			defer w.Close()
			w.InjectFaults(tc.plan)
			errs := park(t, w)
			tc.event(w)
			for i, errc := range errs {
				if err := released(t, errc); !tc.check(err) {
					t.Fatalf("tag %d: %v", tags[i], err)
				}
			}
		})
	}
}
