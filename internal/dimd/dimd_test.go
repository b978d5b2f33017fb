package dimd

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/imagecodec"
	"repro/internal/mpi"
	"repro/internal/tensor"
)

// buildTestPack makes a pack of n small distinct records.
func buildTestPack(n int) *Pack {
	return Build(n, func(i int) (int, []byte) {
		return i % 10, []byte(fmt.Sprintf("image-%04d-%s", i, string(make([]byte, i%17))))
	})
}

func TestPackBuildAndAccess(t *testing.T) {
	p := buildTestPack(25)
	if p.N() != 25 {
		t.Fatalf("N = %d", p.N())
	}
	r := p.Record(7)
	if r.Label != 7 || !bytes.HasPrefix(r.Data, []byte("image-0007")) {
		t.Fatalf("record 7 = %v %q", r.Label, r.Data)
	}
	if p.Offsets[0] != 0 || p.Offsets[25] != int64(len(p.Blob)) {
		t.Fatal("offsets inconsistent")
	}
}

func TestPackSerializationRoundTrip(t *testing.T) {
	p := buildTestPack(13)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPack(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.N() != p.N() {
		t.Fatalf("N %d vs %d", q.N(), p.N())
	}
	for i := 0; i < p.N(); i++ {
		a, b := p.Record(i), q.Record(i)
		if a.Label != b.Label || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

func TestReadPackErrors(t *testing.T) {
	if _, err := ReadPack(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty reader should error")
	}
	if _, err := ReadPack(bytes.NewReader(make([]byte, 12))); err == nil {
		t.Fatal("bad magic should error")
	}
	p := buildTestPack(3)
	var buf bytes.Buffer
	p.WriteTo(&buf)
	full := buf.Bytes()
	if _, err := ReadPack(bytes.NewReader(full[:len(full)-2])); err == nil {
		t.Fatal("truncated blob should error")
	}
}

func TestPartitionBoundsCoverExactly(t *testing.T) {
	f := func(n uint16, size uint8) bool {
		nn := int(n%5000) + 1
		ss := int(size%32) + 1
		prev := 0
		for r := 0; r < ss; r++ {
			lo, hi := PartitionBounds(nn, r, ss)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadPartition(t *testing.T) {
	p := buildTestPack(10)
	s0, err := LoadPartition(p, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := LoadPartition(p, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s0.Len() != 5 || s1.Len() != 5 {
		t.Fatalf("partition sizes %d, %d", s0.Len(), s1.Len())
	}
	if !bytes.HasPrefix(s1.Record(0).Data, []byte("image-0005")) {
		t.Fatal("partition 1 should start at image 5")
	}
	// Full copy semantics: mutating the pack must not change the store.
	p.Blob[p.Offsets[0]] = 'X'
	if s0.Record(0).Data[0] == 'X' {
		t.Fatal("store aliases pack blob")
	}
	if _, err := LoadPartition(p, 2, 2); err == nil {
		t.Fatal("rank out of range should error")
	}
}

func TestRandomBatchDistinctAndInRange(t *testing.T) {
	p := buildTestPack(50)
	s, _ := LoadPartition(p, 0, 1)
	rng := tensor.NewRNG(1)
	batch, err := s.RandomBatch(rng, 20)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range batch {
		if seen[string(r.Data)] {
			t.Fatal("batch smaller than store must sample distinct records")
		}
		seen[string(r.Data)] = true
	}
	// Oversized batch samples with replacement rather than erroring.
	big, err := s.RandomBatch(rng, 80)
	if err != nil || len(big) != 80 {
		t.Fatalf("oversized batch: %v len %d", err, len(big))
	}
	empty := NewStore(nil)
	if _, err := empty.RandomBatch(rng, 1); err == nil {
		t.Fatal("empty store should error")
	}
}

func TestRandomBatchCoversStoreOverTime(t *testing.T) {
	p := buildTestPack(30)
	s, _ := LoadPartition(p, 0, 1)
	rng := tensor.NewRNG(2)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		batch, _ := s.RandomBatch(rng, 10)
		for _, r := range batch {
			seen[string(r.Data)] = true
		}
	}
	if len(seen) != 30 {
		t.Fatalf("random batches covered %d/30 records", len(seen))
	}
}

// recordKey canonicalizes a record for multiset comparison.
func recordKey(r Record) string { return fmt.Sprintf("%d|%s", r.Label, r.Data) }

func TestShufflePreservesMultiset(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		for _, segments := range []int{1, 3} {
			p := buildTestPack(64)
			var want []string
			for i := 0; i < p.N(); i++ {
				want = append(want, recordKey(p.Record(i)))
			}
			sort.Strings(want)

			w := mpi.NewWorld(n)
			var mu sync.Mutex
			var got []string
			err := w.Run(func(c *mpi.Comm) error {
				s, err := LoadPartition(p, c.Rank(), n)
				if err != nil {
					return err
				}
				if err := s.Shuffle(c, ShuffleOptions{Segments: segments, Seed: 42}); err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				for i := 0; i < s.Len(); i++ {
					got = append(got, recordKey(s.Record(i)))
				}
				return nil
			})
			w.Close()
			if err != nil {
				t.Fatalf("n=%d seg=%d: %v", n, segments, err)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("n=%d seg=%d: %d records after shuffle, want %d", n, segments, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d seg=%d: record multiset changed at %d: %q vs %q", n, segments, i, got[i], want[i])
				}
			}
		}
	}
}

func TestShuffleActuallyMoves(t *testing.T) {
	const n = 4
	p := buildTestPack(200)
	w := mpi.NewWorld(n)
	defer w.Close()
	var mu sync.Mutex
	moved := 0
	err := w.Run(func(c *mpi.Comm) error {
		s, err := LoadPartition(p, c.Rank(), n)
		if err != nil {
			return err
		}
		before := map[string]bool{}
		for i := 0; i < s.Len(); i++ {
			before[recordKey(s.Record(i))] = true
		}
		if err := s.Shuffle(c, ShuffleOptions{Seed: 7}); err != nil {
			return err
		}
		newHere := 0
		for i := 0; i < s.Len(); i++ {
			if !before[recordKey(s.Record(i))] {
				newHere++
			}
		}
		mu.Lock()
		moved += newHere
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// With uniform destinations ~3/4 of 200 records should land elsewhere.
	if moved < 100 {
		t.Fatalf("only %d records changed learners; shuffle too local", moved)
	}
}

func TestShuffleRoughlyBalanced(t *testing.T) {
	const n = 4
	p := buildTestPack(400)
	w := mpi.NewWorld(n)
	defer w.Close()
	var mu sync.Mutex
	sizes := make([]int, n)
	err := w.Run(func(c *mpi.Comm) error {
		s, err := LoadPartition(p, c.Rank(), n)
		if err != nil {
			return err
		}
		if err := s.Shuffle(c, ShuffleOptions{Seed: 3}); err != nil {
			return err
		}
		mu.Lock()
		sizes[c.Rank()] = s.Len()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, sz := range sizes {
		if sz < 60 || sz > 140 { // expectation 100, generous bounds
			t.Fatalf("rank %d holds %d records after shuffle (sizes %v)", r, sz, sizes)
		}
	}
}

func TestGroupShuffleStaysInGroup(t *testing.T) {
	const n = 4 // two groups: {0,1} and {2,3}
	p := buildTestPack(100)
	w := mpi.NewWorld(n)
	defer w.Close()
	var mu sync.Mutex
	groupRecords := map[int][]string{}
	err := w.Run(func(c *mpi.Comm) error {
		ranks := []int{0, 1}
		if c.Rank() >= n/2 {
			ranks = []int{2, 3}
		}
		sub, err := c.Sub(ranks)
		if err != nil {
			return err
		}
		s, err := LoadPartition(p, c.Rank(), n)
		if err != nil {
			return err
		}
		if err := s.Shuffle(sub, ShuffleOptions{Seed: 11}); err != nil {
			return err
		}
		g := ranks[0] // group id = first member rank
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < s.Len(); i++ {
			groupRecords[g] = append(groupRecords[g], recordKey(s.Record(i)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Group {0,1} loaded images 0..49 and must still hold exactly those.
	want := map[int][2]int{0: {0, 50}, 2: {50, 100}}
	for g, bounds := range want {
		var exp []string
		for i := bounds[0]; i < bounds[1]; i++ {
			exp = append(exp, recordKey(p.Record(i)))
		}
		got := append([]string(nil), groupRecords[g]...)
		sort.Strings(exp)
		sort.Strings(got)
		if len(got) != len(exp) {
			t.Fatalf("group %d has %d records, want %d", g, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("group %d record set changed: records leaked across groups", g)
			}
		}
	}
}

// shuffleThroughTheWire is Shuffle as it was before the records bound for the
// sending rank itself stopped being framed: every bucket, the rank's own
// included, goes through marshalRecords, AllToAllV and unmarshalRecords.
func shuffleThroughTheWire(s *Store, comm *mpi.Comm, opts ShuffleOptions) error {
	m := max(opts.Segments, 1)
	n := comm.Size()
	rng := tensor.NewRNG(opts.Seed*1_000_000_007 + int64(comm.Rank()) + 1)
	var received []Record
	total := len(s.recs)
	for seg := 0; seg < m; seg++ {
		buckets := make([][]Record, n)
		for _, r := range s.recs[seg*total/m : (seg+1)*total/m] {
			d := rng.Intn(n)
			buckets[d] = append(buckets[d], r)
		}
		send := make([][]byte, n)
		for d, b := range buckets {
			send[d] = marshalRecords(b)
		}
		got, err := comm.AllToAllV(send)
		if err != nil {
			return err
		}
		for _, b := range got {
			recs, err := unmarshalRecords(b)
			if err != nil {
				return err
			}
			received = append(received, recs...)
		}
	}
	rng.Shuffle(len(received), func(i, j int) {
		received[i], received[j] = received[j], received[i]
	})
	s.recs = received
	return nil
}

// TestShuffleKeepsOwnRecords: the records a rank draws itself as destination
// for never touch the wire, and the store must come out record for record, in
// order, what sending them through it gives — on a single rank, where every
// record stays, and on four, where a quarter do.
func TestShuffleKeepsOwnRecords(t *testing.T) {
	for _, n := range []int{1, 4} {
		for _, segments := range []int{1, 3} {
			p := buildTestPack(90)
			w := mpi.NewWorld(n)
			err := w.Run(func(c *mpi.Comm) error {
				opts := ShuffleOptions{Segments: segments, Seed: 19}
				got, err := LoadPartition(p, c.Rank(), n)
				if err != nil {
					return err
				}
				want, err := LoadPartition(p, c.Rank(), n)
				if err != nil {
					return err
				}
				if err := got.Shuffle(c, opts); err != nil {
					return err
				}
				if err := shuffleThroughTheWire(want, c, opts); err != nil {
					return err
				}
				if got.Len() != want.Len() {
					return fmt.Errorf("rank %d holds %d records, %d through the wire", c.Rank(), got.Len(), want.Len())
				}
				for i := 0; i < want.Len(); i++ {
					if g, w := got.Record(i), want.Record(i); g.Label != w.Label || !bytes.Equal(g.Data, w.Data) {
						return fmt.Errorf("rank %d record %d is %q, %q through the wire", c.Rank(), i, recordKey(g), recordKey(w))
					}
				}
				return nil
			})
			w.Close()
			if err != nil {
				t.Fatalf("n=%d segments=%d: %v", n, segments, err)
			}
		}
	}
}

func TestStoreBytes(t *testing.T) {
	s := NewStore([]Record{{Label: 1, Data: []byte("abc")}, {Label: 2, Data: []byte("de")}})
	if s.Bytes() != 5 {
		t.Fatalf("Bytes = %d, want 5", s.Bytes())
	}
}

func TestMarshalRecordsRoundTrip(t *testing.T) {
	f := func(labels []int32, sizes []uint8) bool {
		n := len(labels)
		if len(sizes) < n {
			n = len(sizes)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{Label: labels[i], Data: bytes.Repeat([]byte{byte(i)}, int(sizes[i]))}
		}
		b := marshalRecords(recs)
		got, err := unmarshalRecords(b)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i].Label != recs[i].Label || !bytes.Equal(got[i].Data, recs[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := unmarshalRecords([]byte{1}); err == nil {
		t.Fatal("short frame should error")
	}
	if _, err := unmarshalRecords([]byte{1, 0, 0, 0, 5}); err == nil {
		t.Fatal("truncated header should error")
	}
}

func TestSampleTensors(t *testing.T) {
	// Build a store of real encoded images and decode a batch to tensors.
	const size = 40
	recs := make([]Record, 6)
	for i := range recs {
		im := imagecodec.NewImage(size, size)
		for p := range im.Pix {
			im.Pix[p] = uint8((p + i*37) % 256)
		}
		recs[i] = Record{Label: int32(i % 3), Data: imagecodec.Encode(im, 80)}
	}
	s := NewStore(recs)
	aug := imagecodec.Augment{Crop: 32, Mean: [3]float32{0.5, 0.5, 0.5}, Std: [3]float32{0.25, 0.25, 0.25}}
	x := tensor.New(4, 3, 32, 32)
	labels := make([]int, 4)
	rng := tensor.NewRNG(5)
	if err := s.SampleTensors(rng, aug, x, labels); err != nil {
		t.Fatal(err)
	}
	if !x.AllFinite() {
		t.Fatal("non-finite tensor values")
	}
	for _, l := range labels {
		if l < 0 || l > 2 {
			t.Fatalf("label %d out of range", l)
		}
	}
	if err := s.SampleTensors(rng, aug, x, labels[:2]); err == nil {
		t.Fatal("label length mismatch should error")
	}
}
