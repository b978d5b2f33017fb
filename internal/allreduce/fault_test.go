package allreduce

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/mpi"
)

// streamSurvivors drives a Stream on every rank except the crashed victim
// and returns the per-rank bucket errors. The victim is crashed before the
// exchange starts; every survivor must see each bucket fail with ErrRankDown
// naming the victim — and must NOT deadlock, which is the failure mode this
// layer exists to prevent — and must have received everything its live peers
// sent it by the time the streams end.
func streamSurvivors(t *testing.T, ranks, victim int, opts func(c *mpi.Comm) StreamOptions) map[int][]error {
	t.Helper()
	const n, bf = 96, 32
	w := mpi.NewWorld(ranks)
	defer w.Close()
	w.Crash(victim)

	bucketErrs := make(map[int][]error)
	var mu sync.Mutex
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mpi.Comm) error {
			rank := c.Rank()
			if rank == victim {
				return nil // dead before the exchange
			}
			local := make([]float32, n)
			for i := range local {
				local[i] = float32(rank*n + i)
			}
			s := NewStream(c, compress.Identity{}, opts(c))
			defer s.Close()
			var errs []error
			streamRound(s, local, bf, ascending(n, bf), func(r BucketResult) {
				errs = append(errs, r.Err)
				r.Release()
			})
			mu.Lock()
			bucketErrs[rank] = errs
			mu.Unlock()
			if _, err := s.Stats(); err == nil {
				return fmt.Errorf("rank %d: stream reported no error with rank %d dead", rank, victim)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("stream deadlocked with rank %d dead", victim)
	}
	// A failed bucket is still received in full: the fold names its peers
	// from the routing and calls Recv on each of them whatever the bucket's
	// state, so nothing a live peer sent is left in a survivor's mailbox. (A
	// fold that stopped at its first error would strand the later payloads —
	// and, on a charged link, block the peers sending them.)
	for rank := 0; rank < ranks; rank++ {
		if rank == victim {
			continue
		}
		c := w.MustComm(rank)
		for peer := 0; peer < ranks; peer++ {
			if peer == rank || peer == victim {
				continue
			}
			for b := 0; b*bf < n; b++ {
				for _, tag := range []int{tagCompressed + b, tagHierUp + b, tagHierChain + b, tagHierDown + b} {
					if msg, ok, err := c.TryRecv(peer, tag); ok && err == nil {
						t.Fatalf("rank %d never received %d bytes rank %d sent it for bucket %d (tag %d)", rank, len(msg), peer, b, tag)
					}
				}
			}
		}
	}
	return bucketErrs
}

// requireAllRankDown asserts every survivor failed every bucket with a typed
// rank-down error naming the victim.
func requireAllRankDown(t *testing.T, errs map[int][]error, ranks, victim int) {
	t.Helper()
	if len(errs) != ranks-1 {
		t.Fatalf("%d survivors reported, want %d", len(errs), ranks-1)
	}
	for rank, list := range errs {
		if len(list) == 0 {
			t.Fatalf("rank %d saw no bucket results", rank)
		}
		for i, err := range list {
			if !errors.Is(err, mpi.ErrRankDown) {
				t.Fatalf("rank %d bucket %d: %v, want ErrRankDown", rank, i, err)
			}
			if got := mpi.DownRank(err); got != victim {
				t.Fatalf("rank %d bucket %d blames rank %d, want %d (err: %v)", rank, i, got, victim, err)
			}
		}
	}
}

func TestStreamFlatRankDownSurfacesOnSurvivors(t *testing.T) {
	const ranks, victim = 4, 2
	errs := streamSurvivors(t, ranks, victim, func(c *mpi.Comm) StreamOptions {
		return StreamOptions{MaxInFlight: 3}
	})
	requireAllRankDown(t, errs, ranks, victim)
}

func TestStreamShardedRankDownSurfacesOnSurvivors(t *testing.T) {
	const ranks, victim = 4, 1
	errs := streamSurvivors(t, ranks, victim, func(c *mpi.Comm) StreamOptions {
		return StreamOptions{MaxInFlight: 3, ShardBounds: []int{0, 24, 48, 72, 96}}
	})
	// Sharded buckets a survivor does not own complete without touching the
	// victim (nil error is legal there); every owned bucket must fail typed.
	for rank, list := range errs {
		sawTyped := false
		for i, err := range list {
			if err == nil {
				continue
			}
			if !errors.Is(err, mpi.ErrRankDown) {
				t.Fatalf("rank %d bucket %d: %v, want ErrRankDown", rank, i, err)
			}
			if got := mpi.DownRank(err); got != victim {
				t.Fatalf("rank %d bucket %d blames rank %d, want %d", rank, i, got, victim)
			}
			sawTyped = true
		}
		if !sawTyped {
			t.Fatalf("rank %d never surfaced the rank failure", rank)
		}
	}
}

// Killing a non-leader member: the victim's leader sees the failure
// firsthand; everyone downstream learns it from the typed poison — which
// must preserve both the ErrRankDown match and the victim's identity.
func TestStreamHierarchicalRankDownPoisonCarriesVictim(t *testing.T) {
	const ranks, victim = 4, 1 // nodes {0,1} and {2,3}; victim is node 0's member
	topo := mpi.UniformTopology(ranks, 2)
	errs := streamSurvivors(t, ranks, victim, func(c *mpi.Comm) StreamOptions {
		return StreamOptions{MaxInFlight: 3, Topology: &topo}
	})
	requireAllRankDown(t, errs, ranks, victim)
}

// Killing a leader mid-chain: upstream leaders fail on the forward, members
// fail on the down receive — every survivor still gets the typed error.
func TestStreamHierarchicalLeaderRankDown(t *testing.T) {
	const ranks, victim = 4, 2 // victim is node 1's leader (the final leader)
	topo := mpi.UniformTopology(ranks, 2)
	errs := streamSurvivors(t, ranks, victim, func(c *mpi.Comm) StreamOptions {
		return StreamOptions{MaxInFlight: 3, Topology: &topo}
	})
	requireAllRankDown(t, errs, ranks, victim)
}

// The typed poison encoding must round-trip through poisonError, and the
// generic encodings must stay generic.
func TestStreamRankDownPoisonEncoding(t *testing.T) {
	b := make([]byte, poisonLen)
	b[0] = poisonRankDown
	b[1], b[2], b[3], b[4] = 7, 0, 0, 0
	err := poisonError(b, 8, 8)
	if !errors.Is(err, mpi.ErrRankDown) {
		t.Fatalf("typed poison decoded to %v, want ErrRankDown", err)
	}
	if got := mpi.DownRank(err); got != 7 {
		t.Fatalf("typed poison names rank %d, want 7", got)
	}
	if err := poisonError(nil, 8, 8); errors.Is(err, mpi.ErrRankDown) {
		t.Fatalf("zero-length poison must stay generic, got %v", err)
	}
	if err := poisonError(make([]byte, 12), 8, 8); errors.Is(err, mpi.ErrRankDown) {
		t.Fatalf("length mismatch must stay generic, got %v", err)
	}
}

// TestStreamPoisonRankMustBeInWorld: in a 4-rank world, a typed poison names
// a rank of [0, 4) or it is malformed — a plain error, not a RankDownError
// naming a rank the recovery layer cannot resize around (rank -1 would make
// forward relay it as the untyped poison anyway, losing the typing).
func TestStreamPoisonRankMustBeInWorld(t *testing.T) {
	const world = 4
	for _, tc := range []struct {
		name string
		b    string
		rank int // the RankDownError's rank; -1 for a plain error
	}{
		{"first rank", "\xfd\x00\x00\x00\x00", 0},
		{"last rank", "\xfd\x03\x00\x00\x00", 3},
		{"rank past the world", "\xfd\x07\x00\x00\x00", -1},
		{"rank equal to the size", "\xfd\x04\x00\x00\x00", -1},
		{"negative rank", "\xfd\xff\xff\xff\xff", -1},
		{"rank past int32", "\xfd\x00\x00\x00\x80", -1},
		{"wrong marker", "\xfe\x01\x00\x00\x00", -1},
	} {
		err := poisonError([]byte(tc.b), 8, world)
		if err == nil {
			t.Errorf("%s: decoded to no error", tc.name)
			continue
		}
		if typed := errors.Is(err, mpi.ErrRankDown); typed != (tc.rank >= 0) || mpi.DownRank(err) != tc.rank {
			t.Errorf("%s: decoded to %v (a rank failure: %v), want rank %d", tc.name, err, typed, tc.rank)
		}
	}
}

// FuzzPoisonError: whatever arrives where a chain partial was expected,
// poisonError never panics, always returns an error, and any RankDownError
// names a rank of the world. The committed corpus holds a rank past a 4-rank
// world and rank -1, both of which the decoder once turned into typed errors.
func FuzzPoisonError(f *testing.F) {
	f.Add([]byte{poisonRankDown, 2, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		const world = 4
		err := poisonError(b, 8, world)
		if err == nil {
			t.Fatalf("%x decoded to no error", b)
		}
		if r := mpi.DownRank(err); errors.Is(err, mpi.ErrRankDown) && (r < 0 || r >= world) {
			t.Fatalf("%x decoded to a rank failure of rank %d in a %d-rank world", b, r, world)
		}
	})
}
