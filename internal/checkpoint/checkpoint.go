// Package checkpoint serializes and restores training state — model
// weights, optimizer momentum, and progress counters — so long runs (the
// paper's 90-epoch regime) survive restarts and models can be shipped for
// inference. The format is self-describing: parameter names and sizes are
// stored, and Load verifies them against the target model, so loading a
// checkpoint into the wrong architecture fails loudly instead of silently
// scrambling weights. It is rank-count independent: momentum shards gather
// into one full-state file and carve back down to any world's shards, through
// the one Optimizer contract sgd.SGD satisfies. Read trusts no length field:
// a checkpoint may arrive inside a recovery verdict off the network, so
// payloads are read as the reader supplies them, never sized by a header.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/mpi"
	"repro/internal/nn"
)

// Optimizer is the state a checkpoint carries besides the weights — what
// sgd.SGD holds: momentum exported/imported as one flat slice, which may be
// only one rank's contiguous shard of the full state (sgd.NewShard; a
// replicated optimizer's shard is everything). StateBounds locates the held
// state within the full flat vector, which lets CaptureSharded gather shards
// into a rank-count-independent checkpoint and Restore carve a full
// checkpoint back down to one rank's shard.
type Optimizer interface {
	// StateLen returns the held state's element count.
	StateLen() int
	// FullStateLen returns the whole model's state element count.
	FullStateLen() int
	// StateBounds returns the element range [lo, hi) the held state occupies
	// within the full flat state vector (hi-lo == StateLen()).
	StateBounds() (lo, hi int)
	ExportState(dst []float32) error
	ImportState(src []float32) error
}

const (
	magic   = 0x54504B43 // "CKPT"
	version = 1
)

// Checkpoint is a restorable training snapshot.
type Checkpoint struct {
	// Step and Epoch are progress counters, stored verbatim.
	Step  int64
	Epoch float64
	// names/sizes describe the parameter list for validation on load.
	names  []string
	values [][]float32
	// optState holds optimizer momentum (empty when saved without one).
	optState []float32
}

// Capture snapshots the model (and optionally the optimizer; pass nil to
// skip) at the given progress counters. A sharded optimizer holding only
// part of the state cannot be captured without its peers — use
// CaptureSharded with the training communicator instead.
func Capture(params []*nn.Param, opt Optimizer, step int64, epoch float64) (*Checkpoint, error) {
	if opt != nil && opt.StateLen() != opt.FullStateLen() {
		lo, hi := opt.StateBounds()
		return nil, fmt.Errorf("checkpoint: optimizer holds shard [%d,%d) of %d state elements; use CaptureSharded",
			lo, hi, opt.FullStateLen())
	}
	c := &Checkpoint{Step: step, Epoch: epoch}
	for _, p := range params {
		c.names = append(c.names, p.Name)
		v := make([]float32, p.Value.Len())
		copy(v, p.Value.Data)
		c.values = append(c.values, v)
	}
	if opt != nil {
		c.optState = make([]float32, opt.StateLen())
		if err := opt.ExportState(c.optState); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// CaptureSharded snapshots a model trained with a sharded optimizer: every
// rank exports its shard's momentum, the shards are allgathered in rank
// order (rank shards are ascending and contiguous, so concatenation IS the
// full flat state), and every rank returns an identical, rank-count-
// independent Checkpoint — bitwise the file a replicated run would have
// written. Collective: every rank of c must call it.
func CaptureSharded(c *mpi.Comm, params []*nn.Param, opt Optimizer, step int64, epoch float64) (*Checkpoint, error) {
	if opt.StateLen() == opt.FullStateLen() {
		// Replicated form (the shard is everything): the state is already
		// complete and identical on every rank, nothing to gather.
		return Capture(params, opt, step, epoch)
	}
	// Each shard travels with its StateBounds header so placement does not
	// trust rank order, and the layout is verified to tile the full state.
	lo, hi := opt.StateBounds()
	shard := make([]float32, opt.StateLen())
	if err := opt.ExportState(shard); err != nil {
		return nil, err
	}
	msg := make([]byte, 8+4*len(shard))
	binary.LittleEndian.PutUint32(msg[0:], uint32(lo))
	binary.LittleEndian.PutUint32(msg[4:], uint32(hi))
	mpi.EncodeFloat32s(msg[8:], shard)
	parts, err := c.AllGather(msg)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: gathering optimizer shards: %w", err)
	}
	full := make([]float32, opt.FullStateLen())
	prevHi := 0
	for r, b := range parts {
		if len(b) < 8 {
			return nil, fmt.Errorf("checkpoint: short shard header from rank %d", r)
		}
		sLo := int(binary.LittleEndian.Uint32(b[0:]))
		sHi := int(binary.LittleEndian.Uint32(b[4:]))
		if sHi < sLo || sHi > len(full) || len(b) != 8+4*(sHi-sLo) {
			return nil, fmt.Errorf("checkpoint: rank %d shard [%d,%d) with %d bytes is malformed", r, sLo, sHi, len(b))
		}
		// Shards are contiguous ascending in rank order by construction;
		// verify they tile [0, FullStateLen) with no gap or overlap.
		if sLo != prevHi {
			return nil, fmt.Errorf("checkpoint: rank %d shard starts at %d, want %d (ranks disagree on the shard layout)",
				r, sLo, prevHi)
		}
		mpi.DecodeFloat32s(full[sLo:sHi], b[8:])
		prevHi = sHi
	}
	if prevHi != len(full) {
		return nil, fmt.Errorf("checkpoint: gathered shards end at %d, want %d", prevHi, len(full))
	}
	ck, err := Capture(params, nil, step, epoch)
	if err != nil {
		return nil, err
	}
	ck.optState = full
	return ck, nil
}

// Restore writes the snapshot back into the model (and optimizer when both
// the checkpoint and opt carry state). Parameter names and sizes must match.
// The optimizer receives only its own StateBounds slice of the checkpoint's
// full state — the scatter half of rank-count-independent
// checkpointing, needing no communication because every rank reads the same
// file. Replicated checkpoints therefore load into sharded runs of any world
// size, and vice versa.
func (c *Checkpoint) Restore(params []*nn.Param, opt Optimizer) error {
	if len(params) != len(c.values) {
		return fmt.Errorf("checkpoint: model has %d params, checkpoint %d", len(params), len(c.values))
	}
	for i, p := range params {
		if p.Name != c.names[i] {
			return fmt.Errorf("checkpoint: param %d is %q, checkpoint has %q", i, p.Name, c.names[i])
		}
		if p.Value.Len() != len(c.values[i]) {
			return fmt.Errorf("checkpoint: param %q has %d elems, checkpoint %d", p.Name, p.Value.Len(), len(c.values[i]))
		}
	}
	for i, p := range params {
		copy(p.Value.Data, c.values[i])
	}
	if opt == nil || len(c.optState) == 0 {
		return nil
	}
	if len(c.optState) != opt.FullStateLen() {
		return fmt.Errorf("checkpoint: %d state elements for a model with %d", len(c.optState), opt.FullStateLen())
	}
	lo, hi := opt.StateBounds()
	return opt.ImportState(c.optState[lo:hi])
}

// WriteTo implements io.WriterTo: a little-endian framed encoding.
func (c *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	var total int64
	write := func(b []byte) error {
		n, err := w.Write(b)
		total += int64(n)
		return err
	}
	hdr := make([]byte, 4+4+8+8+4)
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(c.Step))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(float64bits(c.Epoch)))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(c.values)))
	if err := write(hdr); err != nil {
		return total, err
	}
	for i, v := range c.values {
		name := []byte(c.names[i])
		frame := make([]byte, 2+len(name)+4)
		binary.LittleEndian.PutUint16(frame, uint16(len(name)))
		copy(frame[2:], name)
		binary.LittleEndian.PutUint32(frame[2+len(name):], uint32(len(v)))
		if err := write(frame); err != nil {
			return total, err
		}
		if err := write(mpi.Float32sToBytes(v)); err != nil {
			return total, err
		}
	}
	var optHdr [4]byte
	binary.LittleEndian.PutUint32(optHdr[:], uint32(len(c.optState)))
	if err := write(optHdr[:]); err != nil {
		return total, err
	}
	if len(c.optState) > 0 {
		if err := write(mpi.Float32sToBytes(c.optState)); err != nil {
			return total, err
		}
	}
	return total, nil
}

// Read parses a checkpoint written by WriteTo.
func Read(r io.Reader) (*Checkpoint, error) {
	hdr := make([]byte, 28)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("checkpoint: header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, errors.New("checkpoint: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	c := &Checkpoint{
		Step:  int64(binary.LittleEndian.Uint64(hdr[8:])),
		Epoch: float64frombits(binary.LittleEndian.Uint64(hdr[16:])),
	}
	count := int(binary.LittleEndian.Uint32(hdr[24:]))
	if count < 0 || count > 1<<20 {
		return nil, fmt.Errorf("checkpoint: implausible param count %d", count)
	}
	for i := 0; i < count; i++ {
		var nameLen [2]byte
		if _, err := io.ReadFull(r, nameLen[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: param %d name length: %w", i, err)
		}
		name := make([]byte, binary.LittleEndian.Uint16(nameLen[:]))
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("checkpoint: param %d name: %w", i, err)
		}
		var szBuf [4]byte
		if _, err := io.ReadFull(r, szBuf[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: param %d size: %w", i, err)
		}
		sz := binary.LittleEndian.Uint32(szBuf[:])
		if sz > 1<<30 {
			return nil, fmt.Errorf("checkpoint: implausible param size %d", sz)
		}
		vals, err := readFloats(r, sz)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: param %d data: %w", i, err)
		}
		c.names = append(c.names, string(name))
		c.values = append(c.values, vals)
	}
	var optHdr [4]byte
	if _, err := io.ReadFull(r, optHdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: optimizer header: %w", err)
	}
	if optLen := binary.LittleEndian.Uint32(optHdr[:]); optLen > 0 {
		vals, err := readFloats(r, optLen)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: optimizer state: %w", err)
		}
		c.optState = vals
	}
	return c, nil
}

// readFloats reads n little-endian float32s. n is a header field, so the
// bytes are read through mpi.ReadN: memory follows what the reader holds.
func readFloats(r io.Reader, n uint32) ([]float32, error) {
	raw, err := mpi.ReadN(r, 4*int64(n))
	if err != nil {
		return nil, err
	}
	return mpi.BytesToFloat32s(raw)
}

func float64bits(f float64) uint64     { return math.Float64bits(f) }
func float64frombits(u uint64) float64 { return math.Float64frombits(u) }
