package mpi

import (
	"errors"
	"testing"
	"time"
	"unsafe"
)

// The payload of these tests is one allreduce pipeline segment: 16,384
// floats, whose byte view has capacity 65,536 — exactly pool class 16, a
// buffer PutBytes would happily recycle. A lent view of it reaching the pool
// on any path would hand the sender's gradient window to the next GetBytes.
const lentFloats = 16384

// timesInPool drains p's pool class, counts the free buffers whose storage
// starts at p, and puts everything back.
func timesInPool(p *byte, capacity int) int {
	class := byteClasses[capClass(capacity)]
	var held [][]byte
	n := 0
	for {
		select {
		case b := <-class:
			held = append(held, b)
			if &b[:1][0] == p {
				n++
			}
			continue
		default:
		}
		break
	}
	for _, b := range held {
		PutBytes(b)
	}
	return n
}

func lentSegment(v float32) ([]float32, *byte) {
	seg := make([]float32, lentFloats)
	for i := range seg {
		seg[i] = v
	}
	return seg, (*byte)(unsafe.Pointer(&seg[0]))
}

func requireAll(t *testing.T, what string, got []float32, want float32) {
	t.Helper()
	for i, v := range got {
		if v != want {
			t.Fatalf("%s: element %d = %v, want %v", what, i, v, want)
		}
	}
}

// A lent segment is read where it lies and never enters the pool, whichever
// way the message is consumed or fails to be.
func TestLentSegmentNeverEntersPool(t *testing.T) {
	const tag = 21
	for _, topo := range []bool{false, true} {
		newWorld := func() *World {
			if !topo {
				return NewWorld(2)
			}
			w, err := NewTopologyWorld(2, UniformTopology(2, 1), LinkProfile{}, LinkProfile{})
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		w := newWorld()
		c0, c1 := w.MustComm(0), w.MustComm(1)
		if !c0.lends() {
			t.Fatalf("topology=%v: in-memory world without a fault injector must lend", topo)
		}
		seg, p := lentSegment(1)
		dst := make([]float32, lentFloats)
		check := func(path string) {
			t.Helper()
			if n := timesInPool(p, 4*lentFloats); n != 0 {
				t.Fatalf("topology=%v, %s: the lent segment sits in the pool %d times", topo, path, n)
			}
		}

		// Consumed by the two float receives. The receiver sees what the
		// segment holds when it reads, not when it was lent: it is a view.
		if err := c0.LendFloats(1, tag, seg); err != nil {
			t.Fatal(err)
		}
		seg[7] = 5
		if err := c1.RecvFloatsAdd(dst, 0, tag); err != nil {
			t.Fatal(err)
		}
		if dst[7] != 5 || dst[8] != 1 {
			t.Fatalf("topology=%v: RecvFloatsAdd read %v, %v from a lent view holding 5, 1", topo, dst[7], dst[8])
		}
		check("RecvFloatsAdd")
		seg[7] = 1
		if err := c0.LendFloats(1, tag, seg); err != nil {
			t.Fatal(err)
		}
		if err := c1.RecvFloatsInto(dst, 0, tag); err != nil {
			t.Fatal(err)
		}
		requireAll(t, "RecvFloatsInto of a lent view", dst, 1)
		check("RecvFloatsInto")

		// Length mismatch: an error, and still no release into the pool.
		if err := c0.LendFloats(1, tag, seg); err != nil {
			t.Fatal(err)
		}
		if err := c1.RecvFloatsAdd(dst[:100], 0, tag); err == nil {
			t.Fatal("RecvFloatsAdd accepted a payload of the wrong length")
		}
		check("length mismatch")

		// Recv and TryRecv keep their contract — the caller owns what it
		// gets — by copying out: releasing that copy recycles the copy.
		takes := map[string]func() ([]byte, error){
			"Recv": func() ([]byte, error) { return c1.Recv(0, tag) },
			"TryRecv": func() ([]byte, error) {
				b, ok, err := c1.TryRecv(0, tag)
				if !ok {
					return nil, errors.New("TryRecv found no message")
				}
				return b, err
			},
		}
		for name, take := range takes {
			if err := c0.LendFloats(1, tag, seg); err != nil {
				t.Fatal(err)
			}
			b, err := take()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(b) != 4*lentFloats || &b[0] == p {
				t.Fatalf("topology=%v, %s: got %d bytes at %p; the lent segment is at %p — want an owned copy", topo, name, len(b), &b[0], p)
			}
			seg[0] = 9 // the copy is the receiver's: the sender's writes no longer show
			DecodeFloat32s(dst, b)
			requireAll(t, name+": owned copy of a lent view", dst, 1)
			seg[0] = 1
			PutBytes(b)
			check(name)
		}

		// Closed world: the mailbox refuses the message and the transport's
		// release of it must be a no-op too.
		w.Close()
		if err := c0.LendFloats(1, tag, seg); !errors.Is(err, ErrClosed) {
			t.Fatalf("LendFloats on a closed world: %v, want ErrClosed", err)
		}
		check("closed world")
	}
}

// A shared buffer serves every destination and is recycled exactly once, by
// the last release — also when the send fails half-way through the children.
func TestSharedBufferRecycledOnceByLastRelease(t *testing.T) {
	const tag = 22
	seg, _ := lentSegment(3)
	dst := make([]float32, lentFloats)

	w := NewWorld(4)
	defer w.Close()
	c := []*Comm{w.MustComm(0), w.MustComm(1), w.MustComm(2), w.MustComm(3)}
	if err := c[0].SendFloatsAll([]int{1, 2, 3}, tag, seg); err != nil {
		t.Fatal(err)
	}
	seg[0] = 4 // the buffer is a copy: seg is the caller's again
	m, err := c[1].recvMsg(0, tag)
	if err != nil {
		t.Fatal(err)
	}
	if m.shared == nil || m.lent || m.shared.refs.Load() != 3 {
		t.Fatalf("first child's message: shared %v lent %v, want one buffer with 3 references", m.shared, m.lent)
	}
	p := &m.data[0]
	m.release()
	if n := timesInPool(p, cap(m.data)); n != 0 {
		t.Fatalf("shared buffer pooled %d times after 1 of 3 releases", n)
	}
	if err := c[2].RecvFloatsInto(dst, 0, tag); err != nil {
		t.Fatal(err)
	}
	requireAll(t, "second child", dst, 3)
	if n := timesInPool(p, cap(m.data)); n != 0 {
		t.Fatalf("shared buffer pooled %d times after 2 of 3 releases", n)
	}
	if err := c[3].RecvFloatsAdd(dst, 0, tag); err != nil {
		t.Fatal(err)
	}
	requireAll(t, "third child", dst, 6)
	if n := timesInPool(p, cap(m.data)); n != 1 {
		t.Fatalf("shared buffer pooled %d times after the last release, want once", n)
	}

	// Rank 2 is down: the put to it fails after rank 1's succeeded and before
	// rank 3's is tried. The sender gives up the two references nobody will
	// release; rank 1's is the last.
	seg[0] = 3
	w.Crash(2)
	if err := c[0].SendFloatsAll([]int{1, 2, 3}, tag, seg); !errors.Is(err, ErrRankDown) {
		t.Fatalf("SendFloatsAll past a dead rank: %v, want ErrRankDown", err)
	}
	if _, ok, _ := c[3].TryRecv(0, tag); ok {
		t.Fatal("a destination after the failed one got a message")
	}
	m, err = c[1].recvMsg(0, tag)
	if err != nil {
		t.Fatal(err)
	}
	if m.shared == nil {
		t.Fatal("after the failed send the delivered message is not shared")
	}
	if refs := m.shared.refs.Load(); refs != 1 {
		t.Fatalf("after the failed send the delivered message holds %d references, want 1", refs)
	}
	p = &m.data[0]
	if n := timesInPool(p, cap(m.data)); n != 0 {
		t.Fatalf("shared buffer pooled %d times while a receiver still holds it", n)
	}
	m.release()
	if n := timesInPool(p, cap(m.data)); n != 1 {
		t.Fatalf("shared buffer pooled %d times after the only receiver released it, want once", n)
	}
}

// Lend and share in steady state allocate nothing: the shared header is
// recycled with its buffer.
func TestLendShareSteadyStateAllocFree(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	c0, c1, c2 := w.MustComm(0), w.MustComm(1), w.MustComm(2)
	seg, dst := make([]float32, 2048), make([]float32, 2048)
	round := func() {
		if err := c1.LendFloats(0, 14, seg); err != nil {
			t.Fatal(err)
		}
		if err := c0.RecvFloatsAdd(dst, 1, 14); err != nil {
			t.Fatal(err)
		}
		if err := c0.SendFloatsAll([]int{1, 2}, 15, dst); err != nil {
			t.Fatal(err)
		}
		if err := c1.RecvFloatsInto(seg, 0, 15); err != nil {
			t.Fatal(err)
		}
		if err := c2.RecvFloatsInto(seg, 0, 15); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs > 0.5 {
		t.Fatalf("steady-state lend + share round allocates %.1f times, want 0", allocs)
	}
}

// A world with a fault injector and a TCP world never lend or share: a rank
// of the one can fail on its own and the other has no memory to view, so
// every float send is a private copy — the receiver reads what the segment held when it was sent, whatever
// the sender wrote since.
func TestFaultAndTCPWorldsCopy(t *testing.T) {
	const tag = 23
	check := func(name string, c0, c1, c2 *Comm) {
		t.Helper()
		if c0.lends() {
			t.Fatalf("%s: communicator lends", name)
		}
		seg, _ := lentSegment(1)
		dst := make([]float32, lentFloats)
		if err := c0.LendFloats(1, tag, seg); err != nil {
			t.Fatal(err)
		}
		for i := range seg {
			seg[i] = 2
		}
		if err := c1.RecvFloatsInto(dst, 0, tag); err != nil {
			t.Fatal(err)
		}
		requireAll(t, name+": LendFloats then mutate", dst, 1)
		if err := c0.SendFloatsAll([]int{1, 2}, tag, seg); err != nil {
			t.Fatal(err)
		}
		b1, err := c1.Recv(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := c2.Recv(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if len(b1) != 4*lentFloats || len(b2) != 4*lentFloats || &b1[0] == &b2[0] {
			t.Fatalf("%s: SendFloatsAll delivered %d and %d bytes at %p and %p, want two private copies", name, len(b1), len(b2), &b1[0], &b2[0])
		}
		PutBytes(b1)
		PutBytes(b2)
	}

	w := NewWorld(3)
	defer w.Close()
	w.InjectFaults(FaultPlan{})
	check("fault world", w.MustComm(0), w.MustComm(1), w.MustComm(2))
	if cc, err := w.ControlComm(0); err != nil || cc.lends() {
		t.Fatalf("fault world's control communicator: err %v, lends %v — it bypasses the injector, not the rule", err, cc.lends())
	}

	worlds := startTCPCluster(t, 3)
	var comms []*Comm
	for _, tw := range worlds {
		c, err := tw.Comm()
		if err != nil {
			t.Fatal(err)
		}
		comms = append(comms, c)
	}
	check("TCP world", comms[0], comms[1], comms[2])
}

// The buffer contract, held by every world a communicator can be built over.
// What differs between them is one fact — may a float send lend or share its
// payload — and that only where no rank can fail on its own and both ends
// share memory; who owns which buffer after a call, and what a byte counter
// sees, does not differ at all.
func TestTransportContractFourWorlds(t *testing.T) {
	const tag, n = 24, lentFloats
	charged, err := NewTopologyWorld(3, UniformTopology(3, 1), LinkProfile{}, LinkProfile{Latency: 20 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := NewTopologyWorld(3, UniformTopology(3, 1), LinkProfile{}, LinkProfile{})
	if err != nil {
		t.Fatal(err)
	}
	faulty.InjectFaults(FaultPlan{DetectTimeout: time.Minute})
	comms := func(w *World) []*Comm { return []*Comm{w.MustComm(0), w.MustComm(1), w.MustComm(2)} }
	var tcp []*Comm
	for _, tw := range startTCPCluster(t, 3) {
		c, err := tw.Comm()
		if err != nil {
			t.Fatal(err)
		}
		tcp = append(tcp, c)
	}
	for _, tc := range []struct {
		name    string
		world   *World // nil over TCP
		c       []*Comm
		lends   bool
		traffic bool // the world counts bytes
	}{
		{"plain", NewWorld(3), nil, true, false},
		{"topology-charged", charged, nil, true, true},
		{"fault-injected", faulty, nil, false, true},
		{"TCP loopback", nil, tcp, false, false},
	} {
		c := tc.c
		if tc.world != nil {
			c = comms(tc.world)
			defer tc.world.Close()
		}
		if got := c[0].lends(); got != tc.lends {
			t.Fatalf("%s: lends = %v, want %v", tc.name, got, tc.lends)
		}
		sent := int64(0) // bytes the world should have counted so far
		counted := func(what string) {
			t.Helper()
			if !tc.traffic {
				return
			}
			if got := tc.world.Traffic(); got != (Traffic{InterBytes: sent}) {
				t.Fatalf("%s: after %s the world counts %+v, want %d inter-node bytes", tc.name, what, got, sent)
			}
		}
		dst := make([]float32, n)

		// Send copies: the caller's buffer is its own again on return.
		seg, p := lentSegment(1)
		b := floatBytes(seg)
		if err := c[0].Send(1, tag, b); err != nil {
			t.Fatal(err)
		}
		seg[0] = 2
		got, err := c[1].Recv(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] == p {
			t.Fatalf("%s: Send delivered the caller's buffer", tc.name)
		}
		DecodeFloat32s(dst, got)
		requireAll(t, tc.name+": Send then mutate", dst, 1)
		PutBytes(got)
		sent += 4 * n
		counted("a copied send")

		// SendOwned hands off: in memory the buffer itself arrives, and
		// either way it is the receiver's (or the pool's), not the sender's.
		own := GetBytes(4 * n)
		EncodeFloat32s(own, seg)
		po := &own[0]
		if err := c[0].SendOwned(1, tag, own); err != nil {
			t.Fatal(err)
		}
		got, err = c[1].Recv(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if inMemory := tc.world != nil; (&got[0] == po) != inMemory {
			t.Fatalf("%s: SendOwned delivered the sender's buffer: %v, want %v", tc.name, &got[0] == po, inMemory)
		}
		PutBytes(got)
		sent += 4 * n
		counted("an owned send")

		// LendFloats: a view where the world lends, a copy elsewhere — and
		// Recv's buffer is the receiver's own in both.
		seg[0] = 1
		if err := c[0].LendFloats(1, tag, seg); err != nil {
			t.Fatal(err)
		}
		seg[0] = 3
		if err := c[1].RecvFloatsInto(dst, 0, tag); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]float32{true: 3, false: 1}[tc.lends]; dst[0] != want {
			t.Fatalf("%s: receiver of a lent segment read %v, want %v", tc.name, dst[0], want)
		}
		sent += 4 * n
		counted("a lent send")
		if err := c[0].LendFloats(1, tag, seg); err != nil {
			t.Fatal(err)
		}
		got, err = c[1].Recv(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] == p {
			t.Fatalf("%s: Recv returned the sender's lent memory", tc.name)
		}
		PutBytes(got)
		if in := timesInPool(p, 4*n); in != 0 {
			t.Fatalf("%s: the lent segment sits in the pool %d times", tc.name, in)
		}
		sent += 4 * n

		// SendFloatsAll: one SendFloats per destination to any counter, one
		// buffer where the world lends, private copies elsewhere.
		if err := c[0].SendFloatsAll([]int{1, 2}, tag, seg); err != nil {
			t.Fatal(err)
		}
		sent += 2 * 4 * n
		counted("a shared send")
		m1, err := c[1].recvMsg(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := c[2].recvMsg(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if same := &m1.data[0] == &m2.data[0]; same != tc.lends {
			t.Fatalf("%s: the two destinations read one buffer: %v, want %v", tc.name, same, tc.lends)
		}
		m1.release()
		m2.release()
	}
}
