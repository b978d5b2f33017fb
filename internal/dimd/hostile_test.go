package dimd

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/imagecodec"
	"repro/internal/tensor"
)

// allocSlack absorbs what the test or fuzz harness allocates beside the call
// under measurement: the bounds are after gigabytes, not kilobytes.
const allocSlack = 1 << 16

// allocatedBytes reports the heap bytes the process allocates while fn runs.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUnmarshalRecordsHostileCount: a 4-byte frame whose count field says
// 2³²−1 made the parser reserve 2³²−1 Records before reading one.
func TestUnmarshalRecordsHostileCount(t *testing.T) {
	frame := []byte{0xff, 0xff, 0xff, 0xff}
	var err error
	got := allocatedBytes(func() { _, err = unmarshalRecords(frame) })
	if err == nil {
		t.Fatal("a count no frame of this size can hold should fail")
	}
	if got > allocSlack {
		t.Fatalf("unmarshalRecords allocated %d bytes for a %d-byte frame", got, len(frame))
	}
	// One record too many for the bytes that follow.
	frame = append(marshalRecords([]Record{{Label: 1}, {Label: 2}})[:4+8], 0)
	binary.LittleEndian.PutUint32(frame, 2)
	if _, err := unmarshalRecords(frame); err == nil {
		t.Fatal("two records claimed over room for one should fail")
	}
}

// TestReadPackHostileHeader: a 12-byte header declaring 2⁴⁰ images made the
// reader allocate a 13 TB index, and a last offset of 2⁶² a blob to match,
// before the stream had supplied a byte of either.
func TestReadPackHostileHeader(t *testing.T) {
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], packMagic)
	binary.LittleEndian.PutUint64(hdr[4:], 1<<40)
	var err error
	got := allocatedBytes(func() { _, err = ReadPack(bytes.NewReader(append(hdr, make([]byte, 100)...))) })
	if err == nil {
		t.Fatal("an index the stream does not supply should fail")
	}
	if got > 1<<20 {
		t.Fatalf("ReadPack allocated %d bytes for a 112-byte stream", got)
	}

	// Counts no int holds — the sign bit, and (where int is 32 bits) anything
	// whose 12-byte-an-image index passes 2³¹ — are refused by the header
	// check, before conversion.
	for _, count := range []uint64{1 << 63, 1<<64 - 1, 1<<40 + 1} {
		binary.LittleEndian.PutUint64(hdr[4:], count)
		if _, err = ReadPack(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "implausible image count") {
			t.Fatalf("image count %d: err = %v, want it called implausible", count, err)
		}
	}

	var pack bytes.Buffer
	if _, err := buildTestPack(3).WriteTo(&pack); err != nil {
		t.Fatal(err)
	}
	hostile := pack.Bytes()
	binary.LittleEndian.PutUint64(hostile[12+8*3:], 1<<62) // Offsets[3]: the blob length
	got = allocatedBytes(func() { _, err = ReadPack(bytes.NewReader(hostile)) })
	if err == nil {
		t.Fatal("a blob the stream does not supply should fail")
	}
	if got > 1<<20 {
		t.Fatalf("ReadPack allocated %d bytes for a %d-byte stream", got, len(hostile))
	}
}

// TestReadPackLargerThanOneChunk drives mpi.ReadN through its growth steps.
func TestReadPackLargerThanOneChunk(t *testing.T) {
	payload := make([]byte, 1<<20+1<<19+7)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	p := Build(3, func(i int) (int, []byte) { return i, payload[i*len(payload)/3 : (i+1)*len(payload)/3] })
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPack(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Blob, payload) {
		t.Fatal("blob differs after a multi-chunk read")
	}
}

// FuzzUnmarshalRecords: the shuffle's receive-side parser never panics, never
// allocates past a small multiple of the frame, and whatever it accepts
// re-marshals to the bytes it was given.
func FuzzUnmarshalRecords(f *testing.F) {
	f.Add(marshalRecords(nil))
	f.Add(marshalRecords([]Record{{Label: 3, Data: []byte("abc")}, {Label: -1}, {Label: 7, Data: make([]byte, 40)}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 9, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		var recs []Record
		var err error
		// Records are 32 B over an 8 B header; payloads are copied once.
		if got := allocatedBytes(func() { recs, err = unmarshalRecords(frame) }); got > uint64(8*len(frame))+allocSlack {
			t.Fatalf("unmarshalRecords allocated %d bytes for a %d-byte frame", got, len(frame))
		}
		if err != nil {
			return
		}
		if again := marshalRecords(recs); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame does not round-trip: %d records, %d bytes in, %d out", len(recs), len(frame), len(again))
		}
	})
}

// FuzzReadPack: the pack reader never panics, never allocates past a small
// multiple of its input, and what it accepts writes back through WriteTo as
// exactly the bytes it consumed.
func FuzzReadPack(f *testing.F) {
	var pack bytes.Buffer
	if _, err := buildTestPack(3).WriteTo(&pack); err != nil {
		f.Fatal(err)
	}
	f.Add(pack.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		var got *Pack
		var err error
		// The index is read once and decoded into two slices of its own
		// size; the blob's buffer doubles as bytes arrive.
		if n := allocatedBytes(func() { got, err = ReadPack(r) }); n > uint64(32*len(b))+1<<18 {
			t.Fatalf("ReadPack allocated %d bytes for a %d-byte input", n, len(b))
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if _, err := got.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if consumed := b[:len(b)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("accepted pack does not round-trip: %d bytes read, %d written", len(consumed), again.Len())
		}
	})
}

// BenchmarkSampleTensors is one rank's share of a dimd_input step: a batch of
// 16 random 16×16 crops out of 256 resident 64×64 quality-80 images.
func BenchmarkSampleTensors(b *testing.B) {
	rng := tensor.NewRNG(3)
	recs := make([]Record, 256)
	for i := range recs {
		im := imagecodec.NewImage(64, 64)
		for p := range im.Pix {
			im.Pix[p] = uint8(128 + 100*((p/3/64+p/3%64+i)%16)/16 + rng.Intn(17) - 8)
		}
		recs[i] = Record{Label: int32(i % 8), Data: imagecodec.Encode(im, 80)}
	}
	s := NewStore(recs)
	aug := imagecodec.DefaultAugment()
	aug.Crop = 16
	x := tensor.New(16, 3, 16, 16)
	labels := make([]int, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SampleTensors(rng, aug, x, labels); err != nil {
			b.Fatal(err)
		}
	}
}
