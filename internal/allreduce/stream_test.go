package allreduce

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
)

// streamReduce runs a Stream over every rank of an n-rank world, submitting
// the buckets of each rank's copy of data in the given per-rank order, and
// returns each rank's reassembled result.
func streamReduce(t *testing.T, ranks int, data [][]float32, codec compress.Codec, bf int, order func(rank int, buckets []int) []int) ([][]float32, []CompressedStats) {
	t.Helper()
	out := make([][]float32, ranks)
	stats := make([]CompressedStats, ranks)
	var mu sync.Mutex
	w := mpi.NewWorld(ranks)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		local := append([]float32(nil), data[rank]...)
		nb := (len(local) + bf - 1) / bf
		buckets := make([]int, nb)
		for b := range buckets {
			buckets[b] = b
		}
		if order != nil {
			buckets = order(rank, buckets)
		}
		s := NewStream(c, codec, StreamOptions{MaxInFlight: 3})
		defer s.Close()
		res := make([]float32, len(local))
		streamRound(s, local, bf, buckets, func(r BucketResult) {
			copy(res[r.Lo:r.Hi], r.Sum)
			r.Release()
		})
		st, err := s.Stats()
		if err != nil {
			return err
		}
		mu.Lock()
		out[rank] = res
		stats[rank] = st
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

// streamRound runs one round of s: a goroutine submits the buckets of
// local (bf floats each) in the given order and ends the round, and every
// result up to the round's end is handed to each.
func streamRound(s *Stream, local []float32, bf int, order []int, each func(BucketResult)) {
	go func() {
		for _, b := range order {
			lo, hi := b*bf, min(b*bf+bf, len(local))
			s.Submit(b, lo, hi, local[lo:hi])
		}
		s.EndRound()
	}()
	for r := range s.Results() {
		if r.Idx == RoundEnd {
			return
		}
		each(r)
	}
}

// ascending returns the bucket indices of an n-float vector in bf-float
// buckets, in order.
func ascending(n, bf int) []int {
	order := make([]int, (n+bf-1)/bf)
	for b := range order {
		order[b] = b
	}
	return order
}

func randomRankData(ranks, n int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float32, ranks)
	for r := range data {
		data[r] = make([]float32, n)
		for i := range data[r] {
			data[r][i] = float32(rng.NormFloat64())
		}
	}
	return data
}

// TestStreamMatchesBucketedAllReduce: submitting buckets through the
// streaming front-end must produce bitwise the same sums and traffic stats
// as the phased call, for exact and lossy codecs alike.
func TestStreamMatchesBucketedAllReduce(t *testing.T) {
	const ranks, n, bf = 3, 1000, 128
	for _, codec := range []compress.Codec{compress.Identity{}, compress.Int8{}, compress.TopK{Ratio: 0.2}} {
		t.Run(codec.Name(), func(t *testing.T) {
			data := randomRankData(ranks, n, 42)

			streamed, streamStats := streamReduce(t, ranks, data, codec, bf, nil)

			phased := make([][]float32, ranks)
			phasedStats := make([]CompressedStats, ranks)
			var mu sync.Mutex
			w := mpi.NewWorld(ranks)
			defer w.Close()
			err := w.Run(func(c *mpi.Comm) error {
				local := append([]float32(nil), data[c.Rank()]...)
				st, err := BucketedAllReduce(c, local, codec, CompressedOptions{BucketFloats: bf})
				if err != nil {
					return err
				}
				mu.Lock()
				phased[c.Rank()] = local
				phasedStats[c.Rank()] = st
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ranks; r++ {
				for i := range phased[r] {
					if phased[r][i] != streamed[r][i] {
						t.Fatalf("rank %d elem %d: phased %v, streamed %v", r, i, phased[r][i], streamed[r][i])
					}
				}
				if streamStats[r] != phasedStats[r] {
					t.Fatalf("rank %d stats: phased %+v, streamed %+v", r, phasedStats[r], streamStats[r])
				}
			}
		})
	}
}

// TestStreamSubmissionOrderIrrelevantToResult: any agreed submission order
// (here: descending, then a seeded shuffle shared by all ranks — matching
// the Stream's ordering contract) must produce bitwise the same reduction as
// ascending order, since matching is by bucket tag, not launch position.
func TestStreamSubmissionOrderIrrelevantToResult(t *testing.T) {
	const ranks, n, bf = 4, 640, 64
	data := randomRankData(ranks, n, 7)
	inOrder, _ := streamReduce(t, ranks, data, compress.Int8{}, bf, nil)
	descending, _ := streamReduce(t, ranks, data, compress.Int8{}, bf, func(rank int, buckets []int) []int {
		for i, j := 0, len(buckets)-1; i < j; i, j = i+1, j-1 {
			buckets[i], buckets[j] = buckets[j], buckets[i]
		}
		return buckets
	})
	shuffled, _ := streamReduce(t, ranks, data, compress.Int8{}, bf, func(rank int, buckets []int) []int {
		rng := rand.New(rand.NewSource(100)) // same seed on every rank: agreed order
		rng.Shuffle(len(buckets), func(i, j int) { buckets[i], buckets[j] = buckets[j], buckets[i] })
		return buckets
	})
	for r := 0; r < ranks; r++ {
		for i := range inOrder[r] {
			if inOrder[r][i] != descending[r][i] {
				t.Fatalf("rank %d elem %d: ascending %v, descending %v", r, i, inOrder[r][i], descending[r][i])
			}
		}
	}
	for r := 0; r < ranks; r++ {
		for i := range inOrder[r] {
			if inOrder[r][i] != shuffled[r][i] {
				t.Fatalf("rank %d elem %d: in-order %v, shuffled %v", r, i, inOrder[r][i], shuffled[r][i])
			}
		}
	}
	// And all ranks hold the same reduction.
	for r := 1; r < ranks; r++ {
		for i := range shuffled[0] {
			if shuffled[r][i] != shuffled[0][i] {
				t.Fatalf("rank %d diverged from rank 0 at elem %d", r, i)
			}
		}
	}
}

// TestStreamSelfDecoded: the SelfDecoded sink must receive the decode of
// this rank's own transmitted payloads, bucket by bucket.
func TestStreamSelfDecoded(t *testing.T) {
	const ranks, n, bf = 2, 300, 64
	data := randomRankData(ranks, n, 13)
	codec := compress.Int8{}
	w := mpi.NewWorld(ranks)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		local := append([]float32(nil), data[rank]...)
		self := make([]float32, n)
		s := NewStream(c, codec, StreamOptions{SelfDecoded: self})
		defer s.Close()
		streamRound(s, local, bf, ascending(n, bf), func(r BucketResult) { r.Release() })
		if _, err := s.Stats(); err != nil {
			return err
		}
		// Expected: decode(compress(bucket)) of the original values.
		for b := 0; b*bf < n; b++ {
			lo, hi := b*bf, min(b*bf+bf, n)
			want := make([]float32, hi-lo)
			if err := codec.Decompress(want, compress.Encode(codec, data[rank][lo:hi])); err != nil {
				return err
			}
			for i, v := range want {
				if self[lo+i] != v {
					t.Errorf("rank %d self-decoded[%d] = %v, want %v", rank, lo+i, self[lo+i], v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamInFlightBounded: the pipeline must never hold more than
// MaxInFlight buckets at once even when many are submitted back-to-back.
func TestStreamInFlightBounded(t *testing.T) {
	const ranks, n, bf, cap = 2, 2048, 64, 2
	data := randomRankData(ranks, n, 3)
	w := mpi.NewWorld(ranks)
	defer w.Close()
	err := w.Run(func(c *mpi.Comm) error {
		local := append([]float32(nil), data[c.Rank()]...)
		s := NewStream(c, compress.Identity{}, StreamOptions{MaxInFlight: cap})
		defer s.Close()
		streamRound(s, local, bf, ascending(n, bf), func(r BucketResult) {
			if got := s.InFlight(); got > cap {
				t.Errorf("in-flight %d exceeds cap %d", got, cap)
			}
			r.Release()
		})
		_, err := s.Stats()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamReusedForRoundsMatchesFreshStreams: one Stream kept open for
// several rounds gives, round by round, bit for bit the sums and counters of
// a fresh Stream per round (BucketedAllReduce and BucketedReduceScatter open
// one, run one round and close it) under flat, reduce-scatter and
// hierarchical routing. A last round that loses a rank fails on every
// survivor with ErrRankDown naming it, and Close still returns.
func TestStreamReusedForRoundsMatchesFreshStreams(t *testing.T) {
	const ranks, n, bf, rounds, victim = 4, 300, 64, 3, 3
	topo := mpi.UniformTopology(ranks, 2)
	codec := compress.Int8{}
	for _, tc := range []struct {
		name string
		opts CompressedOptions
	}{
		{"flat", CompressedOptions{BucketFloats: bf}},
		{"reduce-scatter", CompressedOptions{BucketFloats: bf, ShardBounds: UniformBounds(n, ranks)}},
		{"hierarchical", CompressedOptions{BucketFloats: bf, Topology: &topo}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := make([][][]float32, rounds) // round, rank
			for k := range data {
				data[k] = randomRankData(ranks, n, int64(k+1))
			}
			type out struct {
				sum   []float32
				stats CompressedStats
			}
			var fresh, reused [rounds][ranks]out
			var mu sync.Mutex
			record := func(to *[rounds][ranks]out, k, rank int, sum []float32, st CompressedStats) {
				mu.Lock()
				to[k][rank] = out{sum, st}
				mu.Unlock()
			}

			w := mpi.NewWorld(ranks)
			defer w.Close()
			err := w.Run(func(c *mpi.Comm) error {
				for k := 0; k < rounds; k++ {
					local := append([]float32(nil), data[k][c.Rank()]...)
					var st CompressedStats
					var err error
					if tc.opts.ShardBounds != nil {
						st, err = BucketedReduceScatter(c, local, codec, tc.opts)
					} else {
						st, err = BucketedAllReduce(c, local, codec, tc.opts)
					}
					if err != nil {
						return err
					}
					record(&fresh, k, c.Rank(), local, st)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			w2 := mpi.NewWorld(ranks)
			defer w2.Close()
			err = w2.Run(func(c *mpi.Comm) error {
				s := NewStream(c, codec, StreamOptions{ShardBounds: tc.opts.ShardBounds, Topology: tc.opts.Topology})
				defer s.Close()
				for k := 0; k < rounds; k++ {
					local := append([]float32(nil), data[k][c.Rank()]...)
					st, err := s.Exchange(local, bf)
					if err != nil {
						return err
					}
					record(&reused, k, c.Rank(), local, st)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == victim {
					w2.Crash(victim)
					return nil
				}
				_, err := s.Exchange(append([]float32(nil), data[0][c.Rank()]...), bf)
				if !errors.Is(err, mpi.ErrRankDown) || mpi.DownRank(err) != victim {
					t.Errorf("rank %d: the round after rank %d died failed with %v, want ErrRankDown naming it", c.Rank(), victim, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < rounds; k++ {
				for r := 0; r < ranks; r++ {
					f, g := fresh[k][r], reused[k][r]
					if f.stats != g.stats {
						t.Fatalf("round %d rank %d stats: fresh %+v, reused %+v", k, r, f.stats, g.stats)
					}
					for i := range f.sum {
						if math.Float32bits(f.sum[i]) != math.Float32bits(g.sum[i]) {
							t.Fatalf("round %d rank %d elem %d: fresh %v, reused %v", k, r, i, f.sum[i], g.sum[i])
						}
					}
				}
			}
		})
	}
}
