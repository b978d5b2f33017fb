package simevent

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// simFixture is the shared fixture: a profiled 4×4 world on a charged
// fabric, nonzero host overhead, and jitter — every source of timing
// variation enabled, so determinism is tested under the hardest config.
func simFixture(t *testing.T, seed uint64) ([]Result, Config) {
	t.Helper()
	fabric := simnet.MinskyFabric(4)
	intra, inter, err := fabric.LinkProfiles(1)
	if err != nil {
		t.Fatal(err)
	}
	topo := mpi.UniformTopology(16, 4)
	cfg := Config{
		Topo: topo, Intra: intra, Inter: inter,
		HostOverhead: 3 * time.Microsecond, JitterFrac: 0.5, Seed: seed,
		Fabric: fabric, Record: true,
	}
	var results []Result
	for _, col := range Collectives() {
		scheds, err := BuildSchedule(Spec{
			Collective: col, Topo: topo, Elems: 4000, BucketFloats: 512,
			Codec:     compress.TopK{Ratio: 0.1},
			PairBytes: func(src, dst int) int { return unevenPair(src, dst, 4000) },
		})
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		res, err := Run(scheds, cfg)
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		results = append(results, *res)
	}
	return results, cfg
}

// TestSameSeedByteIdenticalTraces is the determinism property: two runs
// with the same seed produce byte-identical event traces and reports.
func TestSameSeedByteIdenticalTraces(t *testing.T) {
	a, _ := simFixture(t, 42)
	b, _ := simFixture(t, 42)
	for i := range a {
		ja, err := json.Marshal(a[i])
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(b[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("collective %d: same-seed reports differ:\n%s\nvs\n%s", i, ja, jb)
		}
		if a[i].TraceHash != b[i].TraceHash {
			t.Fatalf("collective %d: same-seed trace hashes differ: %x vs %x", i, a[i].TraceHash, b[i].TraceHash)
		}
		if len(a[i].Trace) == 0 {
			t.Fatalf("collective %d: Record produced an empty trace", i)
		}
	}
}

// TestDifferentSeedsVaryOnlyJitter: a different seed may move event times
// (jitter) but never byte totals, message counts, or per-rank byte splits.
func TestDifferentSeedsVaryOnlyJitter(t *testing.T) {
	a, _ := simFixture(t, 1)
	b, _ := simFixture(t, 2)
	jittered := false
	for i := range a {
		if a[i].Traffic != b[i].Traffic {
			t.Fatalf("collective %d: traffic varies with seed: %+v vs %+v", i, a[i].Traffic, b[i].Traffic)
		}
		if a[i].Messages != b[i].Messages {
			t.Fatalf("collective %d: message count varies with seed: %d vs %d", i, a[i].Messages, b[i].Messages)
		}
		for r := range a[i].PerRank {
			if a[i].PerRank[r].SentBytes != b[i].PerRank[r].SentBytes ||
				a[i].PerRank[r].RecvBytes != b[i].PerRank[r].RecvBytes {
				t.Fatalf("collective %d rank %d: byte split varies with seed", i, r)
			}
		}
		// Jitter may reorder the global event interleaving, but the set of
		// executed operations is schedule-determined: same count, and the
		// same multiset of (kind, rank, peer, tag, bytes) tuples.
		if len(a[i].Trace) != len(b[i].Trace) {
			t.Fatalf("collective %d: trace length varies with seed: %d vs %d", i, len(a[i].Trace), len(b[i].Trace))
		}
		ops := make(map[TraceEvent]int)
		for _, ev := range a[i].Trace {
			ev.At = 0
			ops[ev]++
		}
		for _, ev := range b[i].Trace {
			ev.At = 0
			ops[ev]--
		}
		for ev, n := range ops {
			if n != 0 {
				t.Fatalf("collective %d: op multiset varies with seed at %+v (count diff %d)", i, ev, n)
			}
		}
		if a[i].TraceHash != b[i].TraceHash {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("different seeds produced identical traces everywhere — jitter is not being applied")
	}
}
