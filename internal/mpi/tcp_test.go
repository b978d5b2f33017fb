package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// startTCPCluster brings up n TCP ranks on dynamic localhost ports and
// returns their worlds with the address table fully populated.
func startTCPCluster(t *testing.T, n int) []*TCPWorld {
	t.Helper()
	worlds := make([]*TCPWorld, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		placeholder := make([]string, n)
		for j := range placeholder {
			placeholder[j] = "127.0.0.1:0"
		}
		w, err := NewTCPWorld(i, placeholder)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
		addrs[i] = w.Addr()
	}
	for _, w := range worlds {
		w.SetAddrs(addrs)
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			w.Close()
		}
	})
	return worlds
}

func runTCP(t *testing.T, worlds []*TCPWorld, fn func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(worlds))
	for _, w := range worlds {
		wg.Add(1)
		go func(w *TCPWorld) {
			defer wg.Done()
			c, err := w.Comm()
			if err != nil {
				errs <- err
				return
			}
			errs <- fn(c)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	worlds := startTCPCluster(t, 2)
	runTCP(t, worlds, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 4, []byte("over tcp"))
		}
		got, err := c.Recv(0, 4)
		if err != nil {
			return err
		}
		if string(got) != "over tcp" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
}

func TestTCPSelfSend(t *testing.T) {
	worlds := startTCPCluster(t, 1)
	runTCP(t, worlds, func(c *Comm) error {
		if err := c.Send(0, 1, []byte("self")); err != nil {
			return err
		}
		got, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(got) != "self" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
}

func TestTCPCollectives(t *testing.T) {
	const n = 4
	worlds := startTCPCluster(t, n)
	runTCP(t, worlds, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		var root []byte
		if c.Rank() == 2 {
			root = []byte("from rank 2")
		}
		b, err := c.Bcast(2, root)
		if err != nil {
			return err
		}
		if string(b) != "from rank 2" {
			return fmt.Errorf("rank %d tcp bcast got %q", c.Rank(), b)
		}
		all, err := c.AllGather([]byte{byte(c.Rank() + 1)})
		if err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if len(all[r]) != 1 || all[r][0] != byte(r+1) {
				return fmt.Errorf("rank %d tcp allgather[%d] = %v", c.Rank(), r, all[r])
			}
		}
		send := make([][]byte, n)
		for i := range send {
			send[i] = []byte{byte(c.Rank()), byte(i)}
		}
		got, err := c.AllToAllV(send)
		if err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			if got[src][0] != byte(src) || got[src][1] != byte(c.Rank()) {
				return fmt.Errorf("tcp alltoallv wrong payload from %d: %v", src, got[src])
			}
		}
		return nil
	})
}

func TestTCPLargeMessage(t *testing.T) {
	worlds := startTCPCluster(t, 2)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	runTCP(t, worlds, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, big)
		}
		got, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if len(got) != len(big) {
			return fmt.Errorf("len %d, want %d", len(got), len(big))
		}
		for i := range got {
			if got[i] != big[i] {
				return fmt.Errorf("byte %d corrupt", i)
			}
		}
		return nil
	})
}

func TestTCPInvalidRank(t *testing.T) {
	if _, err := NewTCPWorld(3, []string{"127.0.0.1:0"}); err == nil {
		t.Fatal("rank out of range should error")
	}
}

// A send whose peer never listens must fail TRANSIENT (reconnect in
// progress) after the bounded backoff — the peer is unreachable, not
// confirmed dead — while a send to a down-marked rank fails fast and
// confirmed, without burning reconnect attempts.
func TestTCPSendTransientThenConfirmed(t *testing.T) {
	w, err := NewTCPWorld(0, []string{"127.0.0.1:0", "127.0.0.1:1"}) // port 1: nothing listens
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetReconnectPolicy(ReconnectPolicy{Attempts: 2, Backoff: 5 * time.Millisecond, MaxBackoff: 10 * time.Millisecond})
	c, err := w.Comm()
	if err != nil {
		t.Fatal(err)
	}
	err = c.Send(1, 3, []byte("x"))
	if !errors.Is(err, ErrRankDown) || !IsReconnecting(err) || !IsTransient(err) {
		t.Fatalf("send to unreachable peer got %v, want transient ErrRankDown", err)
	}
	if DownRank(err) != 1 {
		t.Fatalf("transient error blames rank %d, want 1", DownRank(err))
	}
	w.MarkDown(1)
	start := time.Now()
	err = c.Send(1, 3, []byte("x"))
	if !errors.Is(err, ErrRankDown) || IsTransient(err) {
		t.Fatalf("send to down-marked peer got %v, want confirmed ErrRankDown", err)
	}
	if time.Since(start) > 5*time.Millisecond {
		t.Fatalf("down-marked send took %v, want fail-fast", time.Since(start))
	}
}

// A peer that dies BETWEEN frames must not leave the receiver blocked
// forever: with detection armed, the blocked Recv fails typed — first via
// the recv deadline, and the idle inbound connection's read deadline marks
// the silent source down for everyone else.
func TestTCPRecvFailsTypedWhenPeerDiesBetweenFrames(t *testing.T) {
	worlds := startTCPCluster(t, 2)
	worlds[0].SetDetectTimeout(150 * time.Millisecond)
	c0, err := worlds[0].Comm()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := worlds[1].Comm()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(0, 5, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Recv(1, 5); err != nil {
		t.Fatal(err)
	}
	worlds[1].Close() // dies between frames; no second message ever comes
	done := make(chan error, 1)
	go func() {
		_, err := c0.Recv(1, 6)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRankDown) || DownRank(err) != 1 {
			t.Fatalf("recv from dead peer got %v, want ErrRankDown for rank 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv from dead peer blocked forever")
	}
	// The timeout down-marked the source: the next recv fails fast.
	if _, err := c0.Recv(1, 7); !errors.Is(err, ErrRankDown) {
		t.Fatalf("second recv got %v, want fast ErrRankDown", err)
	}
}

// The inbound connection's read deadline detects a silent peer even when
// NOBODY is blocked receiving from it — silence on the wire is itself the
// failure signal once detection is armed.
func TestTCPReadDeadlineMarksSilentPeerDown(t *testing.T) {
	worlds := startTCPCluster(t, 2)
	worlds[0].SetDetectTimeout(100 * time.Millisecond)
	c0, err := worlds[0].Comm()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := worlds[1].Comm()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(0, 5, []byte("only")); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Recv(1, 5); err != nil {
		t.Fatal(err)
	}
	// Rank 1 stays alive but silent; no Recv is in flight on rank 0. The
	// idle connection must get rank 1 down-marked within ~2 windows.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, ok, err := c0.TryRecv(1, 6)
		if ok && errors.Is(err, ErrRankDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent peer never down-marked by the connection read deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A broken connection must be redialed transparently: kill the peer's
// endpoint, bring a new one up on the same address, and sends resume
// without the caller ever seeing the reset.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	worlds := startTCPCluster(t, 2)
	worlds[0].SetReconnectPolicy(ReconnectPolicy{Attempts: 10, Backoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond})
	c0, err := worlds[0].Comm()
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Send(1, 5, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	addr := worlds[1].Addr()
	worlds[1].Close()
	restarted, err := NewTCPWorld(1, []string{worlds[0].Addr(), addr})
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	t.Cleanup(func() { restarted.Close() })
	// The first write after the reset may be absorbed by the OS buffer and
	// lost; keep sending until one lands on the restarted endpoint.
	c1, err := restarted.Comm()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := c1.Recv(0, 6)
		got <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c0.Send(1, 6, []byte("post")); err != nil {
			t.Fatalf("send never reconnected: %v", err)
		}
		select {
		case err := <-got:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted peer never received a frame")
		}
	}
}

// A frame header is four fields nobody has authenticated. One that names a
// source outside the world, or a length past maxTCPFrame, is answered by
// closing the connection: nothing is allocated for its payload, nothing parks
// in the mailbox, and the reader goroutine ends. A length within the bound
// whose payload never arrives — the peer sends ten bytes of a gigabyte and
// dies — ends the reader too, having allocated about what arrived.
func TestTCPHostileFrameHeaderClosesConnection(t *testing.T) {
	w, err := NewTCPWorld(0, []string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	header := func(src int32, n uint32) []byte {
		var h [tcpFrameHeader]byte
		binary.LittleEndian.PutUint32(h[0:], uint32(src))
		binary.LittleEndian.PutUint64(h[4:], 1)
		binary.LittleEndian.PutUint32(h[12:], 7)
		binary.LittleEndian.PutUint32(h[16:], n)
		return h[:]
	}
	for name, tc := range map[string]struct {
		frame  []byte
		hangUp bool // the peer closes after writing frame
	}{
		"4 GiB length":         {frame: header(1, 0xFFFFFFFF)},
		"length past bound":    {frame: header(1, maxTCPFrame+1)},
		"source past world":    {frame: header(2, 0)},
		"negative source":      {frame: header(-3, 0)},
		"bound, then 10 bytes": {frame: append(header(1, maxTCPFrame), make([]byte, 10)...), hangUp: true},
	} {
		ours, theirs := net.Pipe()
		w.wg.Add(1)
		done := make(chan struct{})
		go func() {
			w.readLoop(ours)
			close(done)
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := theirs.Write(tc.frame); err != nil {
			t.Fatalf("%s: writing the frame: %v", name, err)
		}
		if tc.hangUp {
			theirs.Close()
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the reader is still waiting for a payload", name)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: the frame cost %d bytes of allocation", name, grew)
		}
		theirs.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := theirs.Read(make([]byte, 1)); err != io.EOF && err != io.ErrClosedPipe {
			t.Fatalf("%s: the peer's read returned %v, want a closed connection", name, err)
		}
		theirs.Close()
		if n := len(w.box.queues); n != 0 {
			t.Fatalf("%s: %d queues in the mailbox, want none", name, n)
		}
	}

	// The same reader still takes a well-formed frame.
	ours, theirs := net.Pipe()
	w.wg.Add(1)
	go w.readLoop(ours)
	go theirs.Write(append(header(1, 2), 'o', 'k'))
	c, err := w.Comm()
	if err != nil {
		t.Fatal(err)
	}
	if b, err := c.Recv(1, 7); err != nil || string(b) != "ok" {
		t.Fatalf("well-formed frame: %q, %v", b, err)
	}
	theirs.Close()
}

// wellFormedFrames is the reference reading of a byte stream sent to a rank
// of a ranks-wide TCP world: the frames at its front whose source is a rank,
// whose length is within the bound and whose payload is all there. The
// reader stops at the first frame that is not.
func wellFormedFrames(stream []byte, ranks int) (keys []msgKey, payloads [][]byte) {
	for len(stream) >= tcpFrameHeader {
		src := int(int32(binary.LittleEndian.Uint32(stream[0:])))
		n := binary.LittleEndian.Uint32(stream[16:])
		if src < 0 || src >= ranks || n > maxTCPFrame || uint64(n) > uint64(len(stream)-tcpFrameHeader) {
			break
		}
		tag := int(int32(binary.LittleEndian.Uint32(stream[12:])))
		keys = append(keys, msgKey{src: src, ctx: binary.LittleEndian.Uint64(stream[4:]), tag: tag})
		payloads = append(payloads, stream[tcpFrameHeader:tcpFrameHeader+int(n)])
		stream = stream[tcpFrameHeader+int(n):]
	}
	return keys, payloads
}

// FuzzTCPReadLoop sends arbitrary bytes to the TCP frame reader over a
// net.Pipe and hangs up, as a peer killed mid-stream does. The reader must
// deliver exactly the well-formed frames at the front of the stream, each
// under its (src, ctx, tag) in order, and end: never panic, never hang, and
// never allocate more than a small multiple of what it was sent — a header
// alone sizes nothing. The corpus holds frames cut mid-header and
// mid-payload, a length past the bound, a pooled length whose payload never
// comes, and a source outside the world.
func FuzzTCPReadLoop(f *testing.F) {
	const ranks = 4
	f.Fuzz(func(t *testing.T, stream []byte) {
		wantKeys, wantPayloads := wellFormedFrames(stream, ranks)
		w := &TCPWorld{addrs: make([]string, ranks), box: newMailbox(0)}
		ours, theirs := net.Pipe()
		done := make(chan struct{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w.wg.Add(1)
		go func() {
			w.readLoop(ours)
			close(done)
		}()
		go func() {
			theirs.Write(stream) // fails once the reader gives up on the stream
			theirs.Close()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the reader did not end after the peer hung up")
		}
		runtime.ReadMemStats(&after)
		// A minimal frame (20 bytes, no payload) under a fresh key costs the
		// mailbox a queue and a map slot, about ten times its size.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, 1<<20+16*uint64(len(stream)); grew > bound {
			t.Fatalf("%d bytes sent cost %d bytes of allocation, bound %d", len(stream), grew, bound)
		}
		for i, k := range wantKeys {
			m, ok, err := w.box.wait(k, false, 0)
			if !ok || err != nil || !bytes.Equal(m.data, wantPayloads[i]) {
				t.Fatalf("frame %d %+v: got %q (delivered %v, %v), want %q", i, k, m.data, ok, err, wantPayloads[i])
			}
			PutBytes(m.data)
		}
		for k, q := range w.box.queues {
			if q.head != len(q.items) {
				t.Fatalf("%d frames under %+v that the stream does not hold", len(q.items)-q.head, k)
			}
		}
	})
}
