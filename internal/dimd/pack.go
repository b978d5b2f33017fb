package dimd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/mpi"
)

// Record is one stored image: its label and encoded bytes.
type Record struct {
	Label int32
	Data  []byte
}

// Pack is the paper's "two large files" in one value: the concatenated blob
// of compressed images plus the index of start offsets and label ids that
// allows efficient random access to any image.
type Pack struct {
	// Blob holds every encoded image back to back.
	Blob []byte
	// Offsets has N+1 entries; image i occupies Blob[Offsets[i]:Offsets[i+1]].
	// Offsets are int64 deliberately: the real ImageNet-22k blob is 220 GB,
	// past 32-bit addressing (the same limit Algorithm 2 works around for
	// alltoallv).
	Offsets []int64
	// Labels holds image i's class id.
	Labels []int32
}

// packMagic heads serialized packs.
const packMagic = 0x44494D44 // "DIMD"

// N returns the number of images in the pack.
func (p *Pack) N() int { return len(p.Labels) }

// Record returns image i without copying.
func (p *Pack) Record(i int) Record {
	return Record{Label: p.Labels[i], Data: p.Blob[p.Offsets[i]:p.Offsets[i+1]]}
}

// Build constructs a pack from n images produced by get. This is the offline
// preprocessing step of DIMD (resize + compress + concatenate + index).
func Build(n int, get func(i int) (label int, data []byte)) *Pack {
	p := &Pack{Offsets: make([]int64, 1, n+1), Labels: make([]int32, 0, n)}
	for i := 0; i < n; i++ {
		label, data := get(i)
		p.Blob = append(p.Blob, data...)
		p.Offsets = append(p.Offsets, int64(len(p.Blob)))
		p.Labels = append(p.Labels, int32(label))
	}
	return p
}

// WriteTo serializes the pack (index then blob) to w.
func (p *Pack) WriteTo(w io.Writer) (int64, error) {
	var written int64
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], packMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(p.N()))
	n, err := w.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, err
	}
	idx := make([]byte, 8*(p.N()+1)+4*p.N())
	for i, off := range p.Offsets {
		binary.LittleEndian.PutUint64(idx[8*i:], uint64(off))
	}
	base := 8 * (p.N() + 1)
	for i, l := range p.Labels {
		binary.LittleEndian.PutUint32(idx[base+4*i:], uint32(l))
	}
	n, err = w.Write(idx)
	written += int64(n)
	if err != nil {
		return written, err
	}
	n, err = w.Write(p.Blob)
	written += int64(n)
	return written, err
}

// ReadPack deserializes a pack written with WriteTo.
func ReadPack(r io.Reader) (*Pack, error) {
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("dimd: reading pack header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != packMagic {
		return nil, errors.New("dimd: bad pack magic")
	}
	// Checked as the uint64 it arrives as: the index is 12 bytes an image, and
	// a count whose index an int cannot size (a 32-bit int, or the sign bit)
	// is as implausible as one past 2^40.
	count := binary.LittleEndian.Uint64(hdr[4:])
	if count > 1<<40 || count > (math.MaxInt-8)/12 {
		return nil, fmt.Errorf("dimd: implausible image count %d", count)
	}
	n := int(count)
	idx, err := mpi.ReadN(r, int64(8*(n+1)+4*n))
	if err != nil {
		return nil, fmt.Errorf("dimd: reading pack index: %w", err)
	}
	p := &Pack{Offsets: make([]int64, n+1), Labels: make([]int32, n)}
	for i := range p.Offsets {
		p.Offsets[i] = int64(binary.LittleEndian.Uint64(idx[8*i:]))
	}
	base := 8 * (n + 1)
	for i := range p.Labels {
		p.Labels[i] = int32(binary.LittleEndian.Uint32(idx[base+4*i:]))
	}
	if p.Offsets[0] != 0 {
		return nil, errors.New("dimd: pack offsets must start at 0")
	}
	for i := 0; i < n; i++ {
		if p.Offsets[i+1] < p.Offsets[i] {
			return nil, fmt.Errorf("dimd: pack offsets not monotone at %d", i)
		}
	}
	if p.Blob, err = mpi.ReadN(r, p.Offsets[n]); err != nil {
		return nil, fmt.Errorf("dimd: reading pack blob: %w", err)
	}
	return p, nil
}

// PartitionBounds returns the contiguous range [lo, hi) of pack images that
// learner rank of size holds under partitioned load.
func PartitionBounds(n, rank, size int) (lo, hi int) {
	return rank * n / size, (rank + 1) * n / size
}
