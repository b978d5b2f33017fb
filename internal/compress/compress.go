// Package compress implements gradient-compression codecs for the bucketed
// allreduce path: identity (no compression, the accounting baseline), int8
// linear quantization with a per-bucket scale, top-k sparsification, and the
// bfloat16 wire format. Codecs operate on one bucket of the flattened
// gradient at a time — allreduce.Stream encodes each bucket with one serial
// AppendCompress — and are deterministic: the same input always yields the
// same payload, so every rank decodes identical values and model replicas
// stay bitwise in sync.
//
// Lossy codecs pair with error-feedback residual accumulation (Feedback):
// the compression error of step t is added back into the gradient of step
// t+1, which restores convergence for aggressive sparsification.
package compress

import (
	"fmt"
)

// Codec encodes a float32 vector into a byte payload and back. AppendCompress
// and Decompress must round-trip lengths exactly: a payload produced from n
// floats decompresses into a length-n destination.
//
// Both directions operate on caller-provided memory: AppendCompress appends
// to a scratch slice (pass one with MaxCompressedSize capacity for an
// allocation-free encode) and Decompress overwrites a caller buffer — the
// contract that lets the bucketed allreduce recycle payload buffers across
// steps instead of allocating its full communication volume every step.
type Codec interface {
	// Name identifies the codec in flags, stats, and logs.
	Name() string
	// MaxCompressedSize bounds the payload size for an n-float bucket.
	MaxCompressedSize(n int) int
	// AppendCompress appends the encoding of src to dst and returns the
	// extended slice (append semantics: dst may be nil).
	AppendCompress(dst []byte, src []float32) []byte
	// Decompress decodes payload into dst, overwriting every element. It
	// errors if the payload does not describe exactly len(dst) floats.
	Decompress(dst []float32, payload []byte) error
	// DecompressAdd decodes payload and accumulates it into dst
	// (dst[i] += decoded[i]) in ascending element order — the fused fast
	// path Stream.reduce uses to fold each sender's payload straight into
	// the bucket sum without materializing a temp. For every element the
	// decoded value and the FP add are the same operation Decompress-then-
	// add would perform, so the accumulated sum is bitwise identical, with
	// one documented exception: sparse codecs may skip the += 0 at dropped
	// indices, which can only matter when dst holds -0 there (-0 + +0 = +0);
	// bucket accumulators start at +0 and can never become -0 by adding
	// payloads, so the fused path is bitwise-safe in the reduction.
	DecompressAdd(dst []float32, payload []byte) error
}

// Encode compresses src into a fresh payload — the convenience form for
// tests and cold paths; hot paths pass pooled scratch to AppendCompress.
func Encode(c Codec, src []float32) []byte {
	return c.AppendCompress(nil, src)
}

// AppendCompressAuto is c.AppendCompress. It is kept only because the
// end-to-end benchmark module (bench/layers.go) calls it and is edited only
// by a benchmark change; ROADMAP item 1's benchmark PR deletes it.
func AppendCompressAuto(c Codec, dst []byte, src []float32) []byte { return c.AppendCompress(dst, src) }

// Config selects and tunes a codec. The zero value selects no codec: the
// learner exchanges raw float32 gradients through core.Config.Allreduce's
// algorithm, the paper's exchange. Codec "none" runs the bucketed path with
// the identity codec, so byte accounting is comparable against the lossy
// codecs.
type Config struct {
	// Codec is one of "", "none", "int8", "topk", "bf16".
	Codec string
	// TopKRatio is the fraction of elements the topk codec keeps per bucket
	// (default 0.1, clamped to (0, 1]).
	TopKRatio float64
	// BucketFloats is the bucketed-allreduce bucket size in float32 elements
	// (default 16384 = 64 KiB uncompressed).
	BucketFloats int
	// ErrorFeedback enables residual accumulation for lossy codecs.
	ErrorFeedback bool
}

// Enabled reports whether the bucketed/compressed allreduce path is active.
func (c Config) Enabled() bool { return c.Codec != "" }

// New constructs the configured codec.
func New(cfg Config) (Codec, error) {
	switch cfg.Codec {
	case "", "none":
		return Identity{}, nil
	case "int8":
		return Int8{}, nil
	case "bf16":
		return BFloat16{}, nil
	case "topk":
		r := cfg.TopKRatio
		if r <= 0 {
			r = 0.1
		}
		if r > 1 {
			r = 1
		}
		return TopK{Ratio: r}, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q (want none, int8, topk or bf16)", cfg.Codec)
	}
}

// Feedback maintains the error-feedback residual e_t across steps:
//
//	g'_t = g_t + e_t          (Correct)
//	sent = D(C(g'_t))         (what the wire actually carried)
//	e_{t+1} = g'_t - sent     (Update)
//
// so no gradient mass is lost to compression — it is merely delayed.
type Feedback struct {
	residual []float32
}

// NewFeedback creates a zeroed residual for gradients of length n.
func NewFeedback(n int) *Feedback {
	return &Feedback{residual: make([]float32, n)}
}

// Correct adds the accumulated residual into g in place.
func (f *Feedback) Correct(g []float32) { f.CorrectAt(0, g) }

// CorrectAt adds residual[off : off+len(g)) into g in place — the
// per-bucket form the reactive pipeline applies as each bucket is packed.
// Element-wise it is exactly Correct restricted to a sub-range, so bucketed
// and full-vector correction are bitwise identical.
func (f *Feedback) CorrectAt(off int, g []float32) {
	for i, r := range f.residual[off : off+len(g)] {
		g[i] += r
	}
}

// Update records the new residual given the corrected gradient and the
// values the codec actually transmitted.
func (f *Feedback) Update(corrected, sent []float32) { f.UpdateAt(0, corrected, sent) }

// UpdateAt records the residual for the sub-range starting at off.
func (f *Feedback) UpdateAt(off int, corrected, sent []float32) {
	res := f.residual[off : off+len(corrected)]
	for i := range res {
		res[i] = corrected[i] - sent[i]
	}
}

// Residual exposes the current residual (read-only by convention; tests use
// it to assert the accounting identity).
func (f *Feedback) Residual() []float32 { return f.residual }
