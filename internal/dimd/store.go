package dimd

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/imagecodec"
	"repro/internal/mpi"
	"repro/internal/tensor"
)

// Store is one learner's in-memory partition of the dataset, exposing the
// paper's three DIMD APIs: partitioned load, random in-memory batch load,
// and cross-learner shuffle.
//
// A Store serves one sampler at a time: RandomBatch and SampleTensors draw
// through scratch the Store owns (the index permutation, the batch's record
// slice, the decoder's planes), so that a steady-state SampleTensors
// allocates nothing. Each learner owns its Store; sampling one Store from
// two goroutines at once is a data race.
type Store struct {
	recs []Record

	perm  []int    // RandomBatch's index permutation, len(recs) once warm
	batch []Record // SampleTensors' records
	dec   imagecodec.CropDecoder
}

// LoadPartition implements the Partitioned Load API: learner rank of size
// takes its contiguous share of the pack. With size == 1 the learner holds
// the full dataset (the paper's "each learner can hold the entire data set"
// extreme); larger sizes split it 1/size each.
func LoadPartition(p *Pack, rank, size int) (*Store, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("dimd: invalid partition rank %d of %d", rank, size)
	}
	lo, hi := PartitionBounds(p.N(), rank, size)
	s := &Store{recs: make([]Record, 0, hi-lo)}
	for i := lo; i < hi; i++ {
		r := p.Record(i)
		// Copy out of the pack so the Store owns its bytes (the pack may be
		// released after load, as the paper's loader drops the file).
		data := make([]byte, len(r.Data))
		copy(data, r.Data)
		s.recs = append(s.recs, Record{Label: r.Label, Data: data})
	}
	return s, nil
}

// NewStore wraps pre-built records (tests, generators).
func NewStore(recs []Record) *Store { return &Store{recs: recs} }

// Len returns the number of locally held images.
func (s *Store) Len() int { return len(s.recs) }

// Record returns local image i.
func (s *Store) Record(i int) Record { return s.recs[i] }

// Bytes returns the total payload size held locally (memory-utilization
// reporting in Figures 7-9).
func (s *Store) Bytes() int64 {
	var total int64
	for _, r := range s.recs {
		total += int64(len(r.Data))
	}
	return total
}

// RandomBatch implements the Random In-Memory Batch Load API: n records
// sampled uniformly (with replacement across batches, without within one
// batch when possible) from the local partition.
func (s *Store) RandomBatch(rng *tensor.RNG, n int) ([]Record, error) {
	out := make([]Record, n)
	if err := s.randomBatchInto(rng, out); err != nil {
		return nil, err
	}
	return out, nil
}

// randomBatchInto fills out with a random batch.
func (s *Store) randomBatchInto(rng *tensor.RNG, out []Record) error {
	if len(s.recs) == 0 {
		return errors.New("dimd: RandomBatch on empty store")
	}
	if len(out) <= len(s.recs) {
		// A full permutation of the indices, of which the batch is the head:
		// distinct samples.
		if cap(s.perm) < len(s.recs) {
			s.perm = make([]int, len(s.recs))
		}
		idx := s.perm[:len(s.recs)]
		rng.PermInto(idx)
		for i := range out {
			out[i] = s.recs[idx[i]]
		}
		return nil
	}
	for i := range out {
		out[i] = s.recs[rng.Intn(len(s.recs))]
	}
	return nil
}

// ShuffleOptions tunes the cross-learner shuffle.
type ShuffleOptions struct {
	// Segments is Algorithm 2's m: the local data is split into m segments
	// and exchanged with m successive alltoallv calls, working around
	// >32-bit payload offsets. Default 1.
	Segments int
	// Seed drives destination assignment and the local permutation; all
	// ranks may pass different seeds (each rank routes only its own data).
	Seed int64
}

// Shuffle implements the Shuffle API (paper Algorithm 2): every local record
// is sent to a uniformly random learner in comm via AllToAllV, in Segments
// rounds, and the received records are locally permuted. Restricting comm to
// a sub-communicator gives the group-based shuffle of Figure 9.
func (s *Store) Shuffle(comm *mpi.Comm, opts ShuffleOptions) error {
	m := opts.Segments
	if m <= 0 {
		m = 1
	}
	if m > len(s.recs) && len(s.recs) > 0 {
		m = len(s.recs)
	}
	n := comm.Size()
	rng := tensor.NewRNG(opts.Seed*1_000_000_007 + int64(comm.Rank()) + 1)
	var received []Record
	total := len(s.recs)
	for seg := 0; seg < m; seg++ {
		lo := seg * total / m
		hi := (seg + 1) * total / m
		// Assign each record in this segment a random destination.
		buckets := make([][]Record, n)
		for _, r := range s.recs[lo:hi] {
			d := rng.Intn(n)
			buckets[d] = append(buckets[d], r)
		}
		// The records that stay on this rank are kept as they are: a frame,
		// AllToAllV's copy of it and the decoded copy would be three more
		// live copies of 1/n of the store at the shuffle's peak.
		self := comm.Rank()
		send := make([][]byte, n)
		for d, b := range buckets {
			if d != self {
				send[d] = marshalRecords(b)
			}
		}
		got, err := comm.AllToAllV(send)
		if err != nil {
			return fmt.Errorf("dimd: shuffle alltoallv: %w", err)
		}
		for src, b := range got {
			if src == self {
				received = append(received, buckets[self]...)
				continue
			}
			recs, err := unmarshalRecords(b)
			if err != nil {
				return fmt.Errorf("dimd: shuffle decode: %w", err)
			}
			received = append(received, recs...)
		}
	}
	// Local permutation of the collected output (Algorithm 2's final loop).
	rng.Shuffle(len(received), func(i, j int) {
		received[i], received[j] = received[j], received[i]
	})
	s.recs = received
	return nil
}

// marshalRecords frames records as [count u32] then per record
// [label i32][len u32][bytes].
func marshalRecords(recs []Record) []byte {
	size := 4
	for _, r := range recs {
		size += 8 + len(r.Data)
	}
	out := make([]byte, size)
	binary.LittleEndian.PutUint32(out, uint32(len(recs)))
	pos := 4
	for _, r := range recs {
		binary.LittleEndian.PutUint32(out[pos:], uint32(r.Label))
		binary.LittleEndian.PutUint32(out[pos+4:], uint32(len(r.Data)))
		copy(out[pos+8:], r.Data)
		pos += 8 + len(r.Data)
	}
	return out
}

func unmarshalRecords(b []byte) ([]Record, error) {
	if len(b) < 4 {
		return nil, errors.New("dimd: record frame too short")
	}
	// Every record costs at least its 8-byte header, so the count field
	// cannot claim more records than the frame has room for. Both lengths
	// are compared as they arrive, unsigned: where int is 32 bits a
	// converted field may be negative.
	count := binary.LittleEndian.Uint32(b)
	if uint64(count) > uint64(len(b)-4)/8 {
		return nil, fmt.Errorf("dimd: record frame of %d bytes claims %d records", len(b), count)
	}
	pos := 4
	recs := make([]Record, 0, count)
	for i := 0; i < int(count); i++ {
		if pos+8 > len(b) {
			return nil, errors.New("dimd: truncated record header")
		}
		label := int32(binary.LittleEndian.Uint32(b[pos:]))
		size := binary.LittleEndian.Uint32(b[pos+4:])
		pos += 8
		if uint64(size) > uint64(len(b)-pos) {
			return nil, errors.New("dimd: truncated record payload")
		}
		n := int(size)
		data := make([]byte, n)
		copy(data, b[pos:pos+n])
		pos += n
		recs = append(recs, Record{Label: label, Data: data})
	}
	if pos != len(b) {
		return nil, errors.New("dimd: trailing bytes in record frame")
	}
	return recs, nil
}

// SampleTensors decodes and augments a random mini-batch into x (shape
// [n, 3, crop, crop]) and labels — the step that feeds the GPU compute in
// the paper's Figure 1 ("in-memory JPEG decompresser ... generate image
// tensor objects"). It runs out of the Store's scratch; see Store for the
// single-sampler rule.
func (s *Store) SampleTensors(rng *tensor.RNG, aug imagecodec.Augment, x *tensor.Tensor, labels []int) error {
	n := x.Dim(0)
	if cap(s.batch) < n {
		s.batch = make([]Record, n)
	}
	batch := s.batch[:n]
	if err := s.randomBatchInto(rng, batch); err != nil {
		return err
	}
	return decodeToTensors(&s.dec, batch, rng, aug, x, labels)
}

// DecodeToTensors decodes and augments records into x (shape
// [len(recs), 3, crop, crop]) and labels. Both the DIMD store and the
// baseline file loader feed the trainer through this path.
func DecodeToTensors(recs []Record, rng *tensor.RNG, aug imagecodec.Augment, x *tensor.Tensor, labels []int) error {
	var dec imagecodec.CropDecoder
	return decodeToTensors(&dec, recs, rng, aug, x, labels)
}

func decodeToTensors(dec *imagecodec.CropDecoder, recs []Record, rng *tensor.RNG, aug imagecodec.Augment, x *tensor.Tensor, labels []int) error {
	n := x.Dim(0)
	if len(labels) != n || len(recs) != n {
		return fmt.Errorf("dimd: batch %d records / %d labels for tensor dim0 %d", len(recs), len(labels), n)
	}
	slab := 3 * aug.Crop * aug.Crop
	if x.Len() != n*slab {
		return fmt.Errorf("dimd: tensor size %d, want %d", x.Len(), n*slab)
	}
	for i, r := range recs {
		if err := dec.DecodeApply(r.Data, aug, rng, x.Data[i*slab:(i+1)*slab]); err != nil {
			return fmt.Errorf("dimd: decoding record: %w", err)
		}
		labels[i] = int(r.Label)
	}
	return nil
}
